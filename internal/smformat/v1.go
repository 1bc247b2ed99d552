package smformat

import (
	"bufio"
	"fmt"
	"io"

	"accelproc/internal/seismic"
)

// V1 file magic header lines.
const (
	v1Magic     = "STRONG-MOTION UNCORRECTED RECORD V1"
	v1CompMagic = "STRONG-MOTION UNCORRECTED COMPONENT V1"
)

// V1Magic is the first line of every multiplexed V1 file; the ingest
// plane's format sniffer matches it.
const V1Magic = v1Magic

// V1ComponentMagic is the first line of every per-component V1 product;
// the pipeline's gather step uses it to keep demultiplexed products out of
// the input set even under a forced -format override.
const V1ComponentMagic = v1CompMagic

// V1 is the uncorrected record of one station: raw acceleration for the
// three components, multiplexed into a single <station>.v1 file as recorded
// by the accelerograph.
type V1 struct {
	Station string
	DT      float64      // sample interval, s
	Accel   [3][]float64 // gal, indexed by seismic.Component order (L, T, V)
}

// FromRecord converts a domain record into its V1 file representation.
func FromRecord(rec seismic.Record) V1 {
	var v V1
	v.Station = rec.Station
	v.DT = rec.Accel[0].DT
	for ci := range rec.Accel {
		v.Accel[ci] = rec.Accel[ci].Data
	}
	return v
}

// Validate checks internal consistency of the V1 content.
func (v V1) Validate() error {
	if v.Station == "" {
		return fmt.Errorf("smformat: V1 with empty station")
	}
	if v.DT <= 0 {
		return fmt.Errorf("smformat: V1 %s with non-positive DT %g", v.Station, v.DT)
	}
	n := len(v.Accel[0])
	if n == 0 {
		return fmt.Errorf("smformat: V1 %s has no samples", v.Station)
	}
	for ci := 1; ci < 3; ci++ {
		if len(v.Accel[ci]) != n {
			return fmt.Errorf("smformat: V1 %s component lengths differ (%d vs %d)", v.Station, n, len(v.Accel[ci]))
		}
	}
	return nil
}

// Write serializes the multiplexed V1 file.
func (v V1) Write(w io.Writer) error {
	if err := v.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	err := func() error {
		if _, err := fmt.Fprintln(bw, v1Magic); err != nil {
			return err
		}
		if err := writeHeader(bw, "STATION", v.Station); err != nil {
			return err
		}
		if err := writeHeaderFloat(bw, "DT", v.DT); err != nil {
			return err
		}
		if err := writeHeaderInt(bw, "NPTS", len(v.Accel[0])); err != nil {
			return err
		}
		if err := writeHeader(bw, "UNITS", "gal"); err != nil {
			return err
		}
		for ci, comp := range seismic.Components {
			if err := writeHeader(bw, "COMPONENT", comp.String()); err != nil {
				return err
			}
			if err := writeValues(bw, v.Accel[ci]); err != nil {
				return err
			}
		}
		return nil
	}()
	return flush(bw, err)
}

// ParseV1 reads a multiplexed V1 file.
func ParseV1(r io.Reader) (V1, error) {
	sc := newScanner(r)
	if !sc.Scan() || sc.Text() != v1Magic {
		return V1{}, syntaxErrf(1, "not a V1 file (missing %q)", v1Magic)
	}
	h := &headerReader{sc: sc, line: 1}
	var v V1
	var err error
	if v.Station, err = h.expect("STATION"); err != nil {
		return V1{}, err
	}
	if v.DT, err = h.expectFloat("DT"); err != nil {
		return V1{}, err
	}
	npts, err := h.expectInt("NPTS")
	if err != nil {
		return V1{}, err
	}
	if npts <= 0 {
		return V1{}, syntaxErrf(h.line, "V1 %s: NPTS %d must be positive", v.Station, npts)
	}
	if _, err = h.expect("UNITS"); err != nil {
		return V1{}, err
	}
	for ci, comp := range seismic.Components {
		name, err := h.expect("COMPONENT")
		if err != nil {
			return V1{}, err
		}
		got, err := seismic.ParseComponent(name)
		if err != nil || got != comp {
			return V1{}, syntaxErrf(h.line, "V1 %s: component %d is %q, want %q", v.Station, ci, name, comp)
		}
		vs := newValueScanner(sc, h.line)
		v.Accel[ci], err = vs.readBlock(npts)
		if err != nil {
			return V1{}, fmt.Errorf("smformat: V1 %s component %s: %w", v.Station, comp, err)
		}
		h.line = vs.line
	}
	if err := v.Validate(); err != nil {
		return V1{}, err
	}
	return v, nil
}

// V1Component is one demultiplexed component, stored as <station><c>.v1 by
// pipeline process #3.
type V1Component struct {
	Station   string
	Component seismic.Component
	DT        float64
	Accel     []float64
}

// Validate checks internal consistency.
func (v V1Component) Validate() error {
	if v.Station == "" {
		return fmt.Errorf("smformat: V1 component with empty station")
	}
	if v.DT <= 0 {
		return fmt.Errorf("smformat: V1 component %s%s with non-positive DT %g", v.Station, v.Component.Suffix(), v.DT)
	}
	if len(v.Accel) == 0 {
		return fmt.Errorf("smformat: V1 component %s%s has no samples", v.Station, v.Component.Suffix())
	}
	return nil
}

// Write serializes the per-component V1 file.
func (v V1Component) Write(w io.Writer) error {
	if err := v.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	err := func() error {
		if _, err := fmt.Fprintln(bw, v1CompMagic); err != nil {
			return err
		}
		if err := writeHeader(bw, "STATION", v.Station); err != nil {
			return err
		}
		if err := writeHeader(bw, "COMPONENT", v.Component.String()); err != nil {
			return err
		}
		if err := writeHeaderFloat(bw, "DT", v.DT); err != nil {
			return err
		}
		if err := writeHeaderInt(bw, "NPTS", len(v.Accel)); err != nil {
			return err
		}
		if err := writeHeader(bw, "UNITS", "gal"); err != nil {
			return err
		}
		return writeValues(bw, v.Accel)
	}()
	return flush(bw, err)
}

// ParseV1Component reads a per-component V1 file.
func ParseV1Component(r io.Reader) (V1Component, error) {
	sc := newScanner(r)
	if !sc.Scan() || sc.Text() != v1CompMagic {
		return V1Component{}, syntaxErrf(1, "not a per-component V1 file (missing %q)", v1CompMagic)
	}
	h := &headerReader{sc: sc, line: 1}
	var v V1Component
	var err error
	if v.Station, err = h.expect("STATION"); err != nil {
		return V1Component{}, err
	}
	compName, err := h.expect("COMPONENT")
	if err != nil {
		return V1Component{}, err
	}
	if v.Component, err = seismic.ParseComponent(compName); err != nil {
		return V1Component{}, err
	}
	if v.DT, err = h.expectFloat("DT"); err != nil {
		return V1Component{}, err
	}
	npts, err := h.expectInt("NPTS")
	if err != nil {
		return V1Component{}, err
	}
	if npts <= 0 {
		return V1Component{}, syntaxErrf(h.line, "V1 component %s: NPTS %d must be positive", v.Station, npts)
	}
	if _, err = h.expect("UNITS"); err != nil {
		return V1Component{}, err
	}
	vs := newValueScanner(sc, h.line)
	if v.Accel, err = vs.readBlock(npts); err != nil {
		return V1Component{}, fmt.Errorf("smformat: V1 component %s%s: %w", v.Station, v.Component.Suffix(), err)
	}
	if err := v.Validate(); err != nil {
		return V1Component{}, err
	}
	return v, nil
}
