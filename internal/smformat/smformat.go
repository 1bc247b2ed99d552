// Package smformat reads and writes the file formats flowing through the
// accelerographic processing pipeline.
//
// The legacy Salvadoran chain stores every intermediate product as a text
// file; the file extensions and naming scheme below come directly from the
// paper (section II and Figure 5):
//
//   - <station>.v1            uncorrected record, three multiplexed components
//   - <station><c>.v1         one uncorrected component (c = l, t, v)
//   - <station><c>.v2         corrected component: acceleration, velocity,
//     displacement plus the filter corners and peak values
//   - <station><c>.f          Fourier amplitude spectra of the corrected
//     component (acceleration, velocity, displacement)
//   - <station><c>.r          elastic response spectra (SA, SV, SD)
//   - <station><c>GEM<2|R><A|V|D>.txt  Global Earthquake Model exports, one
//     quantity per file, six per V2/R pair, 18 per station
//
// plus the small metadata files (file lists, filter parameters, max values)
// that the pipeline's lightweight processes create and consume.
//
// All numeric payloads are written with full float64 precision so that
// write→parse round-trips are exact; tests rely on this.
package smformat

import (
	"bufio"
	"io"
	"strconv"
	"strings"

	"accelproc/internal/numtext"
)

// valuesPerLine is the number of numeric samples written per payload line.
const valuesPerLine = 4

// maxLine is the line length the writers make room for before appending a
// line into the bufio.Writer's free space: a full payload line is at most
// 4×25+3+1 bytes.  A longer line (a long station name in a metadata file)
// is still written whole; its append just allocates.
const maxLine = 256

// lineBuf returns w's free buffer space to append one line into, flushing
// first when fewer than maxLine bytes are free.  The caller hands the
// appended line back with w.Write, which then copies nothing.
func lineBuf(w *bufio.Writer) ([]byte, error) {
	if w.Available() < maxLine {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	return w.AvailableBuffer(), nil
}

// writeValues writes a float64 block in fixed-width scientific notation,
// valuesPerLine per row.
func writeValues(w *bufio.Writer, data []float64) error {
	b := valueBlockWriter{w: w, n: len(data)}
	return b.slice(data)
}

// valueScanner incrementally parses whitespace-separated float64 payloads.
// Tokens are sliced out of the current line by index — no per-line []string
// from strings.Fields, no per-token copies — which matters on the payload
// blocks, where a 56K-point record spans 14K lines.
type valueScanner struct {
	sc   *bufio.Scanner
	line int
	buf  []byte // current payload line, the scanner's own bytes
	pos  int    // scan offset into buf
}

func newValueScanner(sc *bufio.Scanner, line int) *valueScanner {
	return &valueScanner{sc: sc, line: line}
}

func isValueSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// next returns the next numeric token.
func (v *valueScanner) next() (float64, error) {
	for {
		for v.pos < len(v.buf) && isValueSpace(v.buf[v.pos]) {
			v.pos++
		}
		if v.pos < len(v.buf) {
			break
		}
		if !v.sc.Scan() {
			if err := v.sc.Err(); err != nil {
				return 0, err
			}
			return 0, syntaxErrf(v.line, "unexpected end of file in value block")
		}
		v.line++
		v.buf = v.sc.Bytes()
		v.pos = 0
	}
	start := v.pos
	for v.pos < len(v.buf) && !isValueSpace(v.buf[v.pos]) {
		v.pos++
	}
	tok := v.buf[start:v.pos]
	x, err := numtext.ParseFloat(tok)
	if err != nil {
		return 0, syntaxErrf(v.line, "bad numeric value %q: %v", tok, err)
	}
	return x, nil
}

// readBlock reads exactly n values.  The pre-allocation is capped so a
// hostile count header cannot reserve gigabytes before any value has been
// read.
func (v *valueScanner) readBlock(n int) ([]float64, error) {
	capHint := n
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	out := make([]float64, 0, capHint)
	for i := 0; i < n; i++ {
		x, err := v.next()
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

// headerReader parses "KEY: value" header lines.
type headerReader struct {
	sc   *bufio.Scanner
	line int
}

// expect reads one line and requires it to have the given key, returning
// the trimmed value.
func (h *headerReader) expect(key string) (string, error) {
	if !h.sc.Scan() {
		if err := h.sc.Err(); err != nil {
			return "", err
		}
		return "", syntaxErrf(h.line+1, "unexpected end of file, want %q header", key)
	}
	h.line++
	text := h.sc.Text()
	k, v, ok := strings.Cut(text, ":")
	if !ok || strings.TrimSpace(k) != key {
		return "", syntaxErrf(h.line, "got %q, want %q header", text, key)
	}
	return strings.TrimSpace(v), nil
}

func (h *headerReader) expectInt(key string) (int, error) {
	v, err := h.expect(key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, syntaxErrf(h.line, "%s: bad integer %q", key, v)
	}
	return n, nil
}

func (h *headerReader) expectFloat(key string) (float64, error) {
	v, err := h.expect(key)
	if err != nil {
		return 0, err
	}
	x, err := numtext.ParseFloat(v)
	if err != nil {
		return 0, syntaxErrf(h.line, "%s: bad number %q", key, v)
	}
	return x, nil
}

func writeHeader(w *bufio.Writer, key, value string) error {
	buf, err := lineBuf(w)
	if err != nil {
		return err
	}
	buf = append(buf, key...)
	buf = append(buf, ": "...)
	buf = append(buf, value...)
	_, err = w.Write(append(buf, '\n'))
	return err
}

func writeHeaderFloat(w *bufio.Writer, key string, v float64) error {
	buf, err := lineBuf(w)
	if err != nil {
		return err
	}
	buf = append(buf, key...)
	buf = append(buf, ": "...)
	buf = numtext.AppendE17(buf, v)
	_, err = w.Write(append(buf, '\n'))
	return err
}

func writeHeaderInt(w *bufio.Writer, key string, v int) error {
	return writeHeader(w, key, strconv.Itoa(v))
}

// flush finalizes a buffered writer, preserving any earlier write error.
func flush(w *bufio.Writer, err error) error {
	if err != nil {
		return err
	}
	return w.Flush()
}

// newScanner builds a line scanner with a buffer large enough for the
// longest header or payload lines these formats produce.
func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return sc
}
