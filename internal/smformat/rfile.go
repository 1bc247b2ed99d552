package smformat

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"accelproc/internal/seismic"
)

const responseMagic = "STRONG-MOTION RESPONSE SPECTRA R"

// Response is the <station><c>.r product of pipeline process #16: elastic
// response spectra of one corrected component over a period grid, at a
// single damping ratio.
type Response struct {
	Station   string
	Component seismic.Component
	Damping   float64   // fraction of critical, e.g. 0.05
	Periods   []float64 // s
	SA        []float64 // spectral acceleration, gal
	SV        []float64 // spectral (relative) velocity, cm/s
	SD        []float64 // spectral (relative) displacement, cm
}

// Validate checks internal consistency.
func (r Response) Validate() error {
	if r.Station == "" {
		return fmt.Errorf("smformat: R file with empty station")
	}
	if !(r.Damping > 0 && r.Damping < 1) { // also rejects NaN
		return fmt.Errorf("smformat: R %s%s damping %g outside (0,1)", r.Station, r.Component.Suffix(), r.Damping)
	}
	n := len(r.Periods)
	if n == 0 {
		return fmt.Errorf("smformat: R %s%s has no periods", r.Station, r.Component.Suffix())
	}
	if len(r.SA) != n || len(r.SV) != n || len(r.SD) != n {
		return fmt.Errorf("smformat: R %s%s spectra lengths differ (T %d, SA %d, SV %d, SD %d)",
			r.Station, r.Component.Suffix(), n, len(r.SA), len(r.SV), len(r.SD))
	}
	for i, p := range r.Periods {
		if !(p > 0) || math.IsInf(p, 1) {
			return fmt.Errorf("smformat: R %s%s period %d is %g, want positive and finite", r.Station, r.Component.Suffix(), i, p)
		}
		if i > 0 && p <= r.Periods[i-1] {
			return fmt.Errorf("smformat: R %s%s periods not strictly increasing at %d", r.Station, r.Component.Suffix(), i)
		}
	}
	return nil
}

// Write serializes the R file.
func (r Response) Write(w io.Writer) error {
	if err := r.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	err := func() error {
		if _, err := fmt.Fprintln(bw, responseMagic); err != nil {
			return err
		}
		if err := writeHeader(bw, "STATION", r.Station); err != nil {
			return err
		}
		if err := writeHeader(bw, "COMPONENT", r.Component.String()); err != nil {
			return err
		}
		if err := writeHeaderFloat(bw, "DAMPING", r.Damping); err != nil {
			return err
		}
		if err := writeHeaderInt(bw, "NPERIODS", len(r.Periods)); err != nil {
			return err
		}
		for _, block := range []struct {
			name string
			data []float64
		}{
			{"PERIODS", r.Periods}, {"SA", r.SA}, {"SV", r.SV}, {"SD", r.SD},
		} {
			if err := writeHeader(bw, "BLOCK", block.name); err != nil {
				return err
			}
			if err := writeValues(bw, block.data); err != nil {
				return err
			}
		}
		return nil
	}()
	return flush(bw, err)
}

// ParseResponse reads an R file.
func ParseResponse(rd io.Reader) (Response, error) {
	sc := newScanner(rd)
	if !sc.Scan() || sc.Text() != responseMagic {
		return Response{}, fmt.Errorf("smformat: not an R file (missing %q)", responseMagic)
	}
	h := &headerReader{sc: sc, line: 1}
	var r Response
	var err error
	if r.Station, err = h.expect("STATION"); err != nil {
		return Response{}, err
	}
	compName, err := h.expect("COMPONENT")
	if err != nil {
		return Response{}, err
	}
	if r.Component, err = seismic.ParseComponent(compName); err != nil {
		return Response{}, err
	}
	if r.Damping, err = h.expectFloat("DAMPING"); err != nil {
		return Response{}, err
	}
	nper, err := h.expectInt("NPERIODS")
	if err != nil {
		return Response{}, err
	}
	if nper <= 0 {
		return Response{}, fmt.Errorf("smformat: R %s: NPERIODS %d must be positive", r.Station, nper)
	}
	for _, block := range []struct {
		name string
		dst  *[]float64
	}{
		{"PERIODS", &r.Periods}, {"SA", &r.SA}, {"SV", &r.SV}, {"SD", &r.SD},
	} {
		name, err := h.expect("BLOCK")
		if err != nil {
			return Response{}, err
		}
		if name != block.name {
			return Response{}, fmt.Errorf("smformat: R %s: block %q, want %q", r.Station, name, block.name)
		}
		vs := newValueScanner(sc, h.line)
		if *block.dst, err = vs.readBlock(nper); err != nil {
			return Response{}, fmt.Errorf("smformat: R %s%s block %s: %w", r.Station, r.Component.Suffix(), name, err)
		}
		h.line = vs.line
	}
	if err := r.Validate(); err != nil {
		return Response{}, err
	}
	return r, nil
}
