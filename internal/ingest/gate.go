package ingest

import (
	"bytes"
	"fmt"

	"accelproc/internal/smformat"
)

// ReadRecord is the whole-record ingest path: read path through fsys,
// resolve the format (sniff + extension when f is nil), decode, run the QC
// gate, and rotate the horizontals into the north-aligned frame.  The
// returned V1 is what pipeline process #3 demultiplexes; the Format tells
// the caller what the file turned out to be.
//
// Every rejection — undecodable bytes, a QC defect, an unrotatable record —
// wraps ErrReject, so the retry classifier sends it straight to quarantine.
func ReadRecord(fsys smformat.FS, path string, f Format, qc QCConfig) (smformat.V1, Format, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return smformat.V1{}, nil, err
	}
	if f == nil {
		prefix := data
		if len(prefix) > SniffLen {
			prefix = prefix[:SniffLen]
		}
		if f, err = Detect(path, prefix); err != nil {
			return smformat.V1{}, nil, err
		}
	}
	rec, err := f.Decode(bytes.NewReader(data))
	if err != nil {
		return smformat.V1{}, f, fmt.Errorf("ingest: decode %s: %w", path, err)
	}
	if rec.Station == "" {
		return smformat.V1{}, f, &DecodeError{Format: f.Name(), Msg: "empty station name"}
	}
	if err := qc.Check(rec); err != nil {
		return smformat.V1{}, f, err
	}
	if rec, err = rotate(rec); err != nil {
		return smformat.V1{}, f, err
	}
	return rec.V1(), f, nil
}

// OpenChunks is the streaming ingest path: the same resolve → decode → QC →
// rotate contract as ReadRecord, but serving the samples in caller-sized
// chunks.  Native V1 input with a header-only gate streams truly
// incrementally; every other case (foreign formats, sample-scanning QC
// thresholds, declared azimuths) decodes through the materialized fallback
// first — inputs buffer, outputs still stream.
func OpenChunks(fsys smformat.StreamFS, path string, f Format, qc QCConfig) (ChunkReader, error) {
	if f == nil {
		prefix, err := sniffPrefix(fsys, path)
		if err != nil {
			return nil, err
		}
		if f, err = Detect(path, prefix); err != nil {
			return nil, err
		}
	}
	if _, native := f.(v1Format); native && !qc.sampleChecks() {
		cr, err := f.DecodeChunked(fsys, path)
		if err != nil {
			return nil, err
		}
		h := cr.Header()
		if err := qc.checkHeader(h.Station, h.DT, h.NPTS); err != nil {
			cr.Close()
			return nil, err
		}
		return cr, nil
	}
	v1, _, err := ReadRecord(fsys, path, f, qc)
	if err != nil {
		return nil, err
	}
	return newBufferedChunks(FromV1(v1)), nil
}

// WriteFile encodes rec in format f and writes it to path through fsys in
// one atomic WriteFile (the tests use it; the pipeline never
// writes foreign formats).
func WriteFile(fsys smformat.FS, path string, f Format, rec Record) error {
	var buf bytes.Buffer
	if err := f.Encode(&buf, rec); err != nil {
		return fmt.Errorf("ingest: encode %s: %w", path, err)
	}
	if err := fsys.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("ingest: write %s: %w", path, err)
	}
	return nil
}
