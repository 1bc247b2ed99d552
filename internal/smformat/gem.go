package smformat

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"accelproc/internal/numtext"
	"accelproc/internal/seismic"
)

const gemMagic = "GEM EXPORT"

// GEMKind distinguishes the source product of a GEM export file.
type GEMKind byte

const (
	// GEMFromV2 marks exports derived from a corrected time series (V2).
	GEMFromV2 GEMKind = '2'
	// GEMFromR marks exports derived from a response spectrum (R).
	GEMFromR GEMKind = 'R'
)

// GEMQuantity selects which physical quantity a GEM file carries.
type GEMQuantity byte

const (
	// GEMAcceleration is acceleration (gal) or spectral acceleration.
	GEMAcceleration GEMQuantity = 'A'
	// GEMVelocity is velocity (cm/s) or spectral velocity.
	GEMVelocity GEMQuantity = 'V'
	// GEMDisplacement is displacement (cm) or spectral displacement.
	GEMDisplacement GEMQuantity = 'D'
)

// GEM is one Global Earthquake Model export file: a two-column series
// (time or period versus value) for a single station, component, source
// product, and quantity.  Pipeline process #19 creates six of these per
// V2/R pair — 18 per station — which feed the downstream GEM toolchain.
type GEM struct {
	Station   string
	Component seismic.Component
	Kind      GEMKind
	Quantity  GEMQuantity
	Abscissa  []float64 // time (s) for V2 exports, period (s) for R exports
	Values    []float64
}

// GEMFileName returns the canonical export file name,
// e.g. "SS01lGEM2A.txt" or "SS01vGEMRD.txt".
func GEMFileName(station string, comp seismic.Component, kind GEMKind, q GEMQuantity) string {
	return fmt.Sprintf("%s%sGEM%c%c.txt", station, comp.Suffix(), kind, q)
}

// FileName returns the canonical name for this export.
func (g GEM) FileName() string {
	return GEMFileName(g.Station, g.Component, g.Kind, g.Quantity)
}

// Validate checks internal consistency.
func (g GEM) Validate() error {
	if g.Station == "" {
		return fmt.Errorf("smformat: GEM file with empty station")
	}
	if g.Kind != GEMFromV2 && g.Kind != GEMFromR {
		return fmt.Errorf("smformat: GEM %s: bad kind %q", g.Station, g.Kind)
	}
	if g.Quantity != GEMAcceleration && g.Quantity != GEMVelocity && g.Quantity != GEMDisplacement {
		return fmt.Errorf("smformat: GEM %s: bad quantity %q", g.Station, g.Quantity)
	}
	if len(g.Abscissa) == 0 {
		return fmt.Errorf("smformat: GEM %s is empty", g.Station)
	}
	if len(g.Abscissa) != len(g.Values) {
		return fmt.Errorf("smformat: GEM %s column lengths differ (%d vs %d)", g.Station, len(g.Abscissa), len(g.Values))
	}
	return nil
}

// Write serializes the GEM file as two full-precision columns.
func (g GEM) Write(w io.Writer) error {
	if err := g.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	err := func() error {
		buf, err := lineBuf(bw)
		if err != nil {
			return err
		}
		buf = append(buf, gemMagic...)
		buf = append(buf, ' ')
		buf = append(buf, g.Station...)
		buf = append(buf, ' ')
		buf = append(buf, g.Component.Suffix()...)
		buf = append(buf, ' ', byte(g.Kind), ' ', byte(g.Quantity), '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		if err := writeHeaderInt(bw, "NROWS", len(g.Values)); err != nil {
			return err
		}
		for i := range g.Values {
			buf, err := lineBuf(bw)
			if err != nil {
				return err
			}
			buf = numtext.AppendE17(buf, g.Abscissa[i])
			buf = append(buf, ' ')
			buf = numtext.AppendE17(buf, g.Values[i])
			if _, err := bw.Write(append(buf, '\n')); err != nil {
				return err
			}
		}
		return nil
	}()
	return flush(bw, err)
}

// ParseGEM reads a GEM export file.
func ParseGEM(r io.Reader) (GEM, error) {
	sc := newScanner(r)
	if !sc.Scan() {
		return GEM{}, fmt.Errorf("smformat: empty GEM file")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 6 || fields[0]+" "+fields[1] != gemMagic {
		return GEM{}, fmt.Errorf("smformat: not a GEM file (bad header %q)", sc.Text())
	}
	var g GEM
	g.Station = fields[2]
	comp, err := seismic.ParseComponent(fields[3])
	if err != nil {
		return GEM{}, err
	}
	g.Component = comp
	if len(fields[4]) != 1 || len(fields[5]) != 1 {
		return GEM{}, fmt.Errorf("smformat: GEM %s: bad kind/quantity fields %q %q", g.Station, fields[4], fields[5])
	}
	g.Kind = GEMKind(fields[4][0])
	g.Quantity = GEMQuantity(fields[5][0])
	h := &headerReader{sc: sc, line: 1}
	nrows, err := h.expectInt("NROWS")
	if err != nil {
		return GEM{}, err
	}
	if nrows <= 0 {
		return GEM{}, fmt.Errorf("smformat: GEM %s: NROWS %d must be positive", g.Station, nrows)
	}
	// Cap the pre-allocation: a hostile NROWS header must not reserve
	// gigabytes before a single data row has been read.
	capHint := nrows
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	g.Abscissa = make([]float64, 0, capHint)
	g.Values = make([]float64, 0, capHint)
	line := h.line
	for i := 0; i < nrows; i++ {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return GEM{}, err
			}
			return GEM{}, fmt.Errorf("smformat: GEM %s: unexpected end of file at row %d", g.Station, i)
		}
		line++
		cols := bytes.Fields(sc.Bytes())
		if len(cols) != 2 {
			return GEM{}, fmt.Errorf("smformat: GEM %s line %d: %d columns, want 2", g.Station, line, len(cols))
		}
		a, err := numtext.ParseFloat(cols[0])
		if err != nil {
			return GEM{}, fmt.Errorf("smformat: GEM %s line %d: %v", g.Station, line, err)
		}
		v, err := numtext.ParseFloat(cols[1])
		if err != nil {
			return GEM{}, fmt.Errorf("smformat: GEM %s line %d: %v", g.Station, line, err)
		}
		g.Abscissa = append(g.Abscissa, a)
		g.Values = append(g.Values, v)
	}
	if err := g.Validate(); err != nil {
		return GEM{}, err
	}
	return g, nil
}

// SplitV2 produces the three GEM exports of a corrected record (process #19
// calls this "SetDataApart" for a V2 input): acceleration, velocity, and
// displacement against time.
func SplitV2(v V2) ([3]GEM, error) {
	if err := v.Validate(); err != nil {
		return [3]GEM{}, err
	}
	t := make([]float64, len(v.Accel))
	for i := range t {
		t[i] = float64(i) * v.DT
	}
	mk := func(q GEMQuantity, vals []float64) GEM {
		return GEM{
			Station: v.Station, Component: v.Component,
			Kind: GEMFromV2, Quantity: q,
			Abscissa: t, Values: vals,
		}
	}
	return [3]GEM{
		mk(GEMAcceleration, v.Accel),
		mk(GEMVelocity, v.Vel),
		mk(GEMDisplacement, v.Disp),
	}, nil
}

// SplitResponse produces the three GEM exports of a response spectrum
// (process #19 on an R input): SA, SV, SD against period.
func SplitResponse(r Response) ([3]GEM, error) {
	if err := r.Validate(); err != nil {
		return [3]GEM{}, err
	}
	mk := func(q GEMQuantity, vals []float64) GEM {
		return GEM{
			Station: r.Station, Component: r.Component,
			Kind: GEMFromR, Quantity: q,
			Abscissa: r.Periods, Values: vals,
		}
	}
	return [3]GEM{
		mk(GEMAcceleration, r.SA),
		mk(GEMVelocity, r.SV),
		mk(GEMDisplacement, r.SD),
	}, nil
}
