package ingest

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"accelproc/internal/numtext"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
)

// v1aFormat is a GeoNet-V1A-style fixed-width text format: a magic line,
// fixed-width "KEY     value" headers, then one block per recorded
// component, each with its own DT and NPTS headers followed by the samples
// in fixed 24-character cells, eight per line.  Unlike the native V1 it
// carries a sensor azimuth and per-component headers, so it can represent
// rotated sensors and every structural QC defect (missing components,
// mismatched lengths, disagreeing sample intervals).  Values round-trip at
// full float64 precision.
type v1aFormat struct{}

// v1aMagic is the first line of every V1A file.
const v1aMagic = "V1A UNCORRECTED ACCELEROGRAM"

const (
	v1aKeyWidth  = 8  // header key field width
	v1aCellWidth = 24 // sample cell width ('e'/17 floats are ≤ 24 chars)
	v1aPerLine   = 8  // sample cells per line
)

func (v1aFormat) Name() string      { return "v1a" }
func (v1aFormat) Extension() string { return ".v1a" }

func (v1aFormat) Sniff(prefix []byte) bool { return hasMagicLine(prefix, v1aMagic) }

// v1aHeader writes one fixed-width header line.
func v1aHeader(w *bufio.Writer, key, value string) error {
	_, err := fmt.Fprintf(w, "%-*s%s\n", v1aKeyWidth, key, value)
	return err
}

func v1aFloat(v float64) string { return string(numtext.AppendE17(nil, v)) }

func (v1aFormat) Encode(w io.Writer, rec Record) error {
	bw := bufio.NewWriter(w)
	err := func() error {
		if _, err := fmt.Fprintln(bw, v1aMagic); err != nil {
			return err
		}
		if err := v1aHeader(bw, "STATION", rec.Station); err != nil {
			return err
		}
		if err := v1aHeader(bw, "AZIMUTH", v1aFloat(rec.Azimuth)); err != nil {
			return err
		}
		ncomp := 0
		for _, a := range rec.Accel {
			if len(a) > 0 {
				ncomp++
			}
		}
		if err := v1aHeader(bw, "NCOMP", strconv.Itoa(ncomp)); err != nil {
			return err
		}
		for ci, comp := range seismic.Components {
			if len(rec.Accel[ci]) == 0 {
				continue
			}
			if err := v1aHeader(bw, "COMP", comp.String()); err != nil {
				return err
			}
			if err := v1aHeader(bw, "DT", v1aFloat(rec.DT[ci])); err != nil {
				return err
			}
			if err := v1aHeader(bw, "NPTS", strconv.Itoa(len(rec.Accel[ci]))); err != nil {
				return err
			}
			// Each cell is its 'e'/17 text right-aligned in v1aCellWidth
			// columns (as "%*s" would), appended into bw's free space.
			var cell [32]byte
			for i, v := range rec.Accel[ci] {
				if bw.Available() < 2*v1aCellWidth {
					if err := bw.Flush(); err != nil {
						return err
					}
				}
				buf := bw.AvailableBuffer()
				text := numtext.AppendE17(cell[:0], v)
				for pad := v1aCellWidth - len(text); pad > 0; pad-- {
					buf = append(buf, ' ')
				}
				buf = append(buf, text...)
				if (i+1)%v1aPerLine == 0 || i == len(rec.Accel[ci])-1 {
					buf = append(buf, '\n')
				}
				if _, err := bw.Write(buf); err != nil {
					return err
				}
			}
		}
		return nil
	}()
	if err != nil {
		return err
	}
	return bw.Flush()
}

// v1aScanner tracks line numbers over a fixed-width V1A body.
type v1aScanner struct {
	sc   *bufio.Scanner
	line int
}

func (s *v1aScanner) next() (string, error) {
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return "", err
		}
		return "", decodeErrf("v1a", s.line+1, "unexpected end of file")
	}
	s.line++
	return s.sc.Text(), nil
}

// header reads one fixed-width header line and requires the given key.
// The value may be empty ("STATION " with nothing after the key field is a
// record whose station name is blank — the QC gate's verdict to make, not
// a parse error), so a line as short as the key field itself is accepted.
func (s *v1aScanner) header(key string) (string, error) {
	text, err := s.next()
	if err != nil {
		return "", err
	}
	keyField, value := text, ""
	if len(text) > v1aKeyWidth {
		keyField, value = text[:v1aKeyWidth], strings.TrimSpace(text[v1aKeyWidth:])
	}
	if strings.TrimSpace(keyField) != key {
		return "", decodeErrf("v1a", s.line, "got %q, want %q header", text, key)
	}
	return value, nil
}

func (s *v1aScanner) headerInt(key string) (int, error) {
	v, err := s.header(key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, decodeErrf("v1a", s.line, "%s: bad integer %q", key, v)
	}
	return n, nil
}

func (s *v1aScanner) headerFloat(key string) (float64, error) {
	v, err := s.header(key)
	if err != nil {
		return 0, err
	}
	x, err := numtext.ParseFloat(v)
	if err != nil {
		return 0, decodeErrf("v1a", s.line, "%s: bad number %q", key, v)
	}
	return x, nil
}

// values reads npts fixed-width sample cells.  The pre-allocation is
// capped so a hostile NPTS header cannot reserve gigabytes up front.
func (s *v1aScanner) values(npts int) ([]float64, error) {
	capHint := npts
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	out := make([]float64, 0, capHint)
	for len(out) < npts {
		text, err := s.next()
		if err != nil {
			return nil, err
		}
		for pos := 0; pos < len(text); pos += v1aCellWidth {
			end := pos + v1aCellWidth
			if end > len(text) {
				end = len(text)
			}
			cell := strings.TrimSpace(text[pos:end])
			if cell == "" {
				return nil, decodeErrf("v1a", s.line, "empty sample cell at column %d", pos)
			}
			x, err := numtext.ParseFloat(cell)
			if err != nil {
				return nil, decodeErrf("v1a", s.line, "bad sample %q: %v", cell, err)
			}
			if len(out) >= npts {
				return nil, decodeErrf("v1a", s.line, "more than NPTS %d samples in block", npts)
			}
			out = append(out, x)
		}
	}
	return out, nil
}

func (v1aFormat) Decode(r io.Reader) (Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	s := &v1aScanner{sc: sc}
	first, err := s.next()
	if err != nil {
		return Record{}, err
	}
	if first != v1aMagic {
		return Record{}, decodeErrf("v1a", 1, "not a V1A file (missing %q)", v1aMagic)
	}
	var rec Record
	if rec.Station, err = s.header("STATION"); err != nil {
		return Record{}, err
	}
	if rec.Azimuth, err = s.headerFloat("AZIMUTH"); err != nil {
		return Record{}, err
	}
	ncomp, err := s.headerInt("NCOMP")
	if err != nil {
		return Record{}, err
	}
	if ncomp < 0 || ncomp > len(seismic.Components) {
		return Record{}, decodeErrf("v1a", s.line, "NCOMP %d outside [0, %d]", ncomp, len(seismic.Components))
	}
	for b := 0; b < ncomp; b++ {
		name, err := s.header("COMP")
		if err != nil {
			return Record{}, err
		}
		comp, err := seismic.ParseComponent(name)
		if err != nil {
			return Record{}, decodeErrf("v1a", s.line, "unknown component %q", name)
		}
		if len(rec.Accel[comp]) != 0 {
			return Record{}, decodeErrf("v1a", s.line, "duplicate %s block", comp)
		}
		if rec.DT[comp], err = s.headerFloat("DT"); err != nil {
			return Record{}, err
		}
		npts, err := s.headerInt("NPTS")
		if err != nil {
			return Record{}, err
		}
		if npts <= 0 {
			return Record{}, decodeErrf("v1a", s.line, "NPTS %d must be positive", npts)
		}
		if rec.Accel[comp], err = s.values(npts); err != nil {
			return Record{}, err
		}
	}
	return rec, nil
}

// DecodeChunked materializes the record: the per-component headers sit
// between the payload blocks, so the streaming plane buffers V1A input
// (outputs still stream).
func (f v1aFormat) DecodeChunked(fsys smformat.StreamFS, path string) (ChunkReader, error) {
	return materializedChunks(f, fsys, path)
}
