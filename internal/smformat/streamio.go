package smformat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"accelproc/internal/seismic"
)

// This file is the streaming counterpart of fsio.go: a chunked reader for
// the multiplexed V1 record, an incremental writer for the per-component V1
// files it separates into, and WriteFileCreateFS, which serializes any
// product through a streaming Create handle.  They let the streaming
// execution plane scan a record without holding it whole.  Every writer
// emits byte-for-byte the same file as its batch twin (Write on a fully
// materialized value); tests pin the identity.

// StreamFS is the storage surface the incremental codecs need: the batch FS
// plus open-for-read and create-for-write streams.  Workspace backends
// satisfy it structurally.
type StreamFS interface {
	FS
	Open(path string) (io.ReadCloser, error)
	Create(path string) (io.WriteCloser, error)
}

// aborter is the optional discard hook of Workspace.Create writers: aborting
// removes the temp file so a partial write can never be renamed into place.
type aborter interface{ Abort() }

// abortWriter discards an in-progress created file.  Writers without an
// Abort hook are closed; their backend's rename-into-place still only
// publishes what was fully written.
func abortWriter(wc io.WriteCloser) {
	if a, ok := wc.(aborter); ok {
		a.Abort()
		return
	}
	wc.Close()
}

// StreamWritable is any format value that can serialize itself to a writer
// (all of this package's file types).
type StreamWritable interface{ Write(w io.Writer) error }

// WriteFileCreateFS serializes v to path through fsys.Create instead of a
// buffered WriteFile: the bytes stream to a temp file and rename into place
// on success, so the value never has to be double-buffered.  The emitted
// bytes are identical to writeFileFS's.
func WriteFileCreateFS(fsys StreamFS, path string, v StreamWritable) error {
	wc, err := fsys.Create(path)
	if err != nil {
		return fmt.Errorf("smformat: write %s: %w", path, err)
	}
	if err := v.Write(wc); err != nil {
		abortWriter(wc)
		return fmt.Errorf("smformat: write %s: %w", path, err)
	}
	if err := wc.Close(); err != nil {
		return fmt.Errorf("smformat: write %s: %w", path, err)
	}
	return nil
}

// valueBlockWriter emits one payload block incrementally with writeValues'
// exact layout: valuesPerLine samples per row, full float64 scientific
// notation, final newline on the block's last value.
type valueBlockWriter struct {
	w   *bufio.Writer
	n   int // block length, fixed up front
	i   int // values written so far
	buf []byte
}

func newValueBlockWriter(w *bufio.Writer, n int) *valueBlockWriter {
	return &valueBlockWriter{w: w, n: n, buf: make([]byte, 0, 32)}
}

func (b *valueBlockWriter) value(v float64) error {
	if b.i >= b.n {
		return fmt.Errorf("smformat: value block overflow: %d values into a block of %d", b.i+1, b.n)
	}
	b.buf = b.buf[:0]
	if b.i%valuesPerLine != 0 {
		b.buf = append(b.buf, ' ')
	}
	b.buf = strconv.AppendFloat(b.buf, v, 'e', 17, 64)
	if (b.i+1)%valuesPerLine == 0 || b.i == b.n-1 {
		b.buf = append(b.buf, '\n')
	}
	b.i++
	_, err := b.w.Write(b.buf)
	return err
}

func (b *valueBlockWriter) slice(vs []float64) error {
	for _, v := range vs {
		if err := b.value(v); err != nil {
			return err
		}
	}
	return nil
}

func (b *valueBlockWriter) done() error {
	if b.i != b.n {
		return fmt.Errorf("smformat: value block short: %d of %d values written", b.i, b.n)
	}
	return nil
}

// V1ComponentStreamWriter writes a per-component V1 file incrementally:
// headers up front, then samples in chunks.  The bytes match
// V1Component.Write exactly.
type V1ComponentStreamWriter struct {
	wc   io.WriteCloser
	bw   *bufio.Writer
	vals *valueBlockWriter
	err  error
}

// NewV1ComponentStreamWriter opens path through fsys.Create and writes the
// header lines; Append then streams the npts samples.
func NewV1ComponentStreamWriter(fsys StreamFS, path, station string, comp seismic.Component, dt float64, npts int) (*V1ComponentStreamWriter, error) {
	if station == "" {
		return nil, fmt.Errorf("smformat: V1 component with empty station")
	}
	if dt <= 0 {
		return nil, fmt.Errorf("smformat: V1 component %s%s with non-positive DT %g", station, comp.Suffix(), dt)
	}
	if npts <= 0 {
		return nil, fmt.Errorf("smformat: V1 component %s%s has no samples", station, comp.Suffix())
	}
	wc, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("smformat: write %s: %w", path, err)
	}
	bw := bufio.NewWriter(wc)
	werr := func() error {
		if _, err := fmt.Fprintln(bw, v1CompMagic); err != nil {
			return err
		}
		if err := writeHeader(bw, "STATION", station); err != nil {
			return err
		}
		if err := writeHeader(bw, "COMPONENT", comp.String()); err != nil {
			return err
		}
		if err := writeHeaderFloat(bw, "DT", dt); err != nil {
			return err
		}
		if err := writeHeaderInt(bw, "NPTS", npts); err != nil {
			return err
		}
		return writeHeader(bw, "UNITS", "gal")
	}()
	if werr != nil {
		abortWriter(wc)
		return nil, fmt.Errorf("smformat: write %s: %w", path, werr)
	}
	return &V1ComponentStreamWriter{wc: wc, bw: bw, vals: newValueBlockWriter(bw, npts)}, nil
}

// Append streams the next run of samples in order.
func (w *V1ComponentStreamWriter) Append(vs []float64) error {
	if w.err != nil {
		return w.err
	}
	if err := w.vals.slice(vs); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Close verifies the sample count, flushes, and publishes the file.  On any
// error the file is discarded instead.
func (w *V1ComponentStreamWriter) Close() error {
	err := w.err
	if err == nil {
		err = w.vals.done()
	}
	if err == nil {
		err = w.bw.Flush()
	}
	if err != nil {
		abortWriter(w.wc)
		return err
	}
	return w.wc.Close()
}

// Abort discards the partially written file.
func (w *V1ComponentStreamWriter) Abort() { abortWriter(w.wc) }

// chunkValues adapts a valueScanner to chunked reads of a fixed-length
// block.
type chunkValues struct {
	vs   *valueScanner
	npts int
	read int
}

// read fills buf with up to len(buf) further values; (0, io.EOF) past the
// end of the block.
func (c *chunkValues) readChunk(buf []float64) (int, error) {
	if c.read >= c.npts {
		return 0, io.EOF
	}
	n := len(buf)
	if rem := c.npts - c.read; n > rem {
		n = rem
	}
	for i := 0; i < n; i++ {
		x, err := c.vs.next()
		if err != nil {
			return i, err
		}
		buf[i] = x
	}
	c.read += n
	return n, nil
}

// V1ChunkReader reads a multiplexed V1 file incrementally: headers up
// front, then each component's samples in caller-sized chunks, in canonical
// component order.
type V1ChunkReader struct {
	Station string
	DT      float64
	NPTS    int

	rc      io.ReadCloser
	h       *headerReader
	vals    chunkValues
	compIdx int
}

// OpenV1Chunks opens path through fsys and parses the record headers.
func OpenV1Chunks(fsys StreamFS, path string) (*V1ChunkReader, error) {
	rc, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("smformat: open %s: %w", path, err)
	}
	r := &V1ChunkReader{rc: rc}
	if err := r.parseHeaders(); err != nil {
		rc.Close()
		return nil, fmt.Errorf("smformat: parse %s: %w", path, err)
	}
	return r, nil
}

func (r *V1ChunkReader) parseHeaders() error {
	sc := newScanner(r.rc)
	if !sc.Scan() || sc.Text() != v1Magic {
		return fmt.Errorf("smformat: not a V1 file (missing %q)", v1Magic)
	}
	r.h = &headerReader{sc: sc, line: 1}
	var err error
	if r.Station, err = r.h.expect("STATION"); err != nil {
		return err
	}
	if r.DT, err = r.h.expectFloat("DT"); err != nil {
		return err
	}
	if r.NPTS, err = r.h.expectInt("NPTS"); err != nil {
		return err
	}
	if r.NPTS <= 0 {
		return fmt.Errorf("smformat: V1 %s: NPTS %d must be positive", r.Station, r.NPTS)
	}
	_, err = r.h.expect("UNITS")
	return err
}

// NextComponent advances to the next component block, returning its
// identity; io.EOF after the last.  The previous component's samples must
// have been fully read.
func (r *V1ChunkReader) NextComponent() (seismic.Component, error) {
	if r.compIdx > 0 && r.vals.read != r.vals.npts {
		return 0, fmt.Errorf("smformat: V1 %s: component advanced after %d of %d samples", r.Station, r.vals.read, r.vals.npts)
	}
	if r.compIdx >= len(seismic.Components) {
		return 0, io.EOF
	}
	want := seismic.Components[r.compIdx]
	name, err := r.h.expect("COMPONENT")
	if err != nil {
		return 0, err
	}
	got, err := seismic.ParseComponent(name)
	if err != nil || got != want {
		return 0, fmt.Errorf("smformat: V1 %s: component %d is %q, want %q", r.Station, r.compIdx, name, want)
	}
	vs := newValueScanner(r.h.sc, r.h.line)
	r.vals = chunkValues{vs: vs, npts: r.NPTS}
	r.compIdx++
	return want, nil
}

// Read fills buf with up to len(buf) samples of the current component;
// (0, io.EOF) at the component's end.  The header line counter stays in sync
// so the next NextComponent reports accurate positions.
func (r *V1ChunkReader) Read(buf []float64) (int, error) {
	n, err := r.vals.readChunk(buf)
	r.h.line = r.vals.vs.line
	return n, err
}

// Close releases the underlying file.
func (r *V1ChunkReader) Close() error { return r.rc.Close() }
