package seismic

import (
	"fmt"
	"math"

	"accelproc/internal/dsp"
)

// GravityGal is standard gravity expressed in gal (cm/s²).
const GravityGal = 980.665

// PeakValues holds the peak ground motion of one component: acceleration
// (gal), velocity (cm/s), and displacement (cm), with the times (s) at which
// each peak occurs.  These are the "max values" the pipeline's filter
// processes archive alongside the corrected signals.
type PeakValues struct {
	PGA, PGV, PGD             float64
	TimePGA, TimePGV, TimePGD float64
}

// Peaks derives velocity and displacement from the acceleration trace by
// trapezoidal integration and returns the three peak values.
func Peaks(accel Trace) (PeakValues, error) {
	if err := accel.Validate(); err != nil {
		return PeakValues{}, err
	}
	vel := dsp.Integrate(accel.Data, accel.DT)
	disp := dsp.Integrate(vel, accel.DT)
	var p PeakValues
	var idx int
	p.PGA, idx = dsp.AbsMax(accel.Data)
	p.TimePGA = float64(idx) * accel.DT
	p.PGV, idx = dsp.AbsMax(vel)
	p.TimePGV = float64(idx) * accel.DT
	p.PGD, idx = dsp.AbsMax(disp)
	p.TimePGD = float64(idx) * accel.DT
	return p, nil
}

// AriasIntensity computes the Arias intensity of an acceleration trace in
// cm/s: Ia = (pi / 2g) * integral a(t)^2 dt, with g in gal to keep the
// centimeter unit system.
func AriasIntensity(accel Trace) (float64, error) {
	if err := accel.Validate(); err != nil {
		return 0, err
	}
	var sum float64
	for _, a := range accel.Data {
		sum += a * a
	}
	return math.Pi / (2 * GravityGal) * sum * accel.DT, nil
}

// SignificantDuration returns the Husid significant duration of the record:
// the time between reaching loFrac and hiFrac of the total Arias intensity
// (conventionally 5% and 75% or 5% and 95%).
func SignificantDuration(accel Trace, loFrac, hiFrac float64) (float64, error) {
	if err := accel.Validate(); err != nil {
		return 0, err
	}
	if !(0 <= loFrac && loFrac < hiFrac && hiFrac <= 1) {
		return 0, fmt.Errorf("seismic: invalid Husid fractions %g, %g", loFrac, hiFrac)
	}
	var total float64
	for _, a := range accel.Data {
		total += a * a
	}
	if total == 0 {
		return 0, fmt.Errorf("seismic: zero-energy trace has no significant duration")
	}
	var cum float64
	tLo, tHi := -1.0, -1.0
	for i, a := range accel.Data {
		cum += a * a
		frac := cum / total
		if tLo < 0 && frac >= loFrac {
			tLo = float64(i) * accel.DT
		}
		if tHi < 0 && frac >= hiFrac {
			tHi = float64(i) * accel.DT
			break
		}
	}
	if tHi < 0 { // hiFrac == 1 can land exactly on the last sample
		tHi = float64(len(accel.Data)-1) * accel.DT
	}
	return tHi - tLo, nil
}
