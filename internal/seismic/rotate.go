package seismic

import "math"

// RotateHorizontal rotates the two horizontal components of a record by the
// given azimuth (degrees, counterclockwise): the instrument's L/T axes are
// re-expressed in a new orthogonal horizontal frame, e.g. to align with the
// source's radial/transverse directions.  The vertical component is
// untouched.  A new record is returned; the input is not modified.
func RotateHorizontal(rec Record, azimuthDeg float64) (Record, error) {
	if err := rec.Validate(); err != nil {
		return Record{}, err
	}
	rad := azimuthDeg * math.Pi / 180
	c, s := math.Cos(rad), math.Sin(rad)
	n := rec.Samples()
	out := Record{Station: rec.Station}
	out.Accel[Longitudinal] = Trace{DT: rec.Accel[Longitudinal].DT, Data: make([]float64, n)}
	out.Accel[Transversal] = Trace{DT: rec.Accel[Transversal].DT, Data: make([]float64, n)}
	out.Accel[Vertical] = rec.Accel[Vertical].Clone()
	l := rec.Accel[Longitudinal].Data
	tr := rec.Accel[Transversal].Data
	for i := 0; i < n; i++ {
		out.Accel[Longitudinal].Data[i] = c*l[i] + s*tr[i]
		out.Accel[Transversal].Data[i] = -s*l[i] + c*tr[i]
	}
	return out, nil
}
