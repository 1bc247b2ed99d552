// Package ingest is the pluggable decode plane in front of the processing
// pipeline: a registry of accelerographic record formats, format sniffing,
// a record sanity (QC) gate with a typed error taxonomy, and sensor-azimuth
// component rotation.
//
// The pipeline historically assumed clean native V1 inputs; real networks
// emit a zoo of formats and broken records.  Everything between "bytes on
// disk" and "a validated, north-aligned smformat.V1" now lives behind this
// package so the decode step is one uniform dataflow node regardless of
// what the station uploaded:
//
//   - native V1 (".v1"), the paper's multiplexed text format
//   - GeoNet-style V1A fixed-width text (".v1a"), with per-component
//     headers and a sensor azimuth
//   - a miniSEED-like length-prefixed binary (".ms")
//   - CSV (".csv"), one sample row per time step
//
// Formats are detected by magic bytes first, file extension second (see
// Detect); an explicit format name from the CLI overrides both.  Every
// decoder preserves full float64 precision, so the same motion encoded in
// any registered format produces byte-identical pipeline products.
package ingest

import (
	"bytes"
	"fmt"
	"io"
	"path"
	"strings"

	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
)

// SniffLen is the number of leading bytes Detect needs to identify every
// registered format by magic.
const SniffLen = 64

// Record is one decoded, not-yet-validated station record: what a format
// decoder extracts from the file before the QC gate and rotation run.  The
// per-component sample intervals are kept separate so a file whose
// components disagree can be represented (and rejected with ErrDtMismatch)
// instead of silently collapsed; a missing component has a nil sample
// slice.
type Record struct {
	Station string
	DT      [3]float64   // per-component sample interval, s, seismic.Components order
	Accel   [3][]float64 // gal, seismic.Components order
	Azimuth float64      // sensor azimuth of the longitudinal axis, degrees; 0 = north-aligned
}

// FromV1 converts a validated native V1 into a Record (azimuth 0).
func FromV1(v smformat.V1) Record {
	return Record{
		Station: v.Station,
		DT:      [3]float64{v.DT, v.DT, v.DT},
		Accel:   v.Accel,
	}
}

// V1 collapses a structurally sound Record into the native representation.
// It must only be called after the QC gate has passed (equal sample
// intervals and component lengths).
func (r Record) V1() smformat.V1 {
	return smformat.V1{Station: r.Station, DT: r.DT[0], Accel: r.Accel}
}

// NPTS returns the longest component length (encoders pad shorter columns;
// a sound record has all three equal).
func (r Record) NPTS() int {
	n := 0
	for _, a := range r.Accel {
		if len(a) > n {
			n = len(a)
		}
	}
	return n
}

// Reader is the decode side of a format: magic sniffing, whole-record
// decoding, and incremental chunked decoding for the streaming plane.
type Reader interface {
	// Sniff reports whether the leading bytes of a file (at least
	// SniffLen when the file is that long) identify this format.
	Sniff(prefix []byte) bool
	// Decode parses one record.  Structural file damage yields an error
	// wrapping smformat.ErrFormat; the decoder does NOT run the QC gate.
	Decode(r io.Reader) (Record, error)
	// DecodeChunked opens path and serves the record's samples in
	// caller-sized chunks, component by component in canonical order.
	// Formats without an incremental parse may materialize the record
	// internally; the native V1 reader is truly streaming.
	DecodeChunked(fsys smformat.StreamFS, path string) (ChunkReader, error)
}

// Format is one registered ingest format: a Reader plus its registry
// identity and an encoder (used by synth and the round-trip tests).
type Format interface {
	Reader
	// Name is the stable registry key ("v1", "v1a", "mseed", "csv"),
	// also the CLI -format spelling.
	Name() string
	// Extension is the canonical input file extension, with dot.
	Extension() string
	// Encode writes rec in this format.  Encoders are deliberately
	// permissive: they serialize defective records (mismatched lengths,
	// disagreeing sample intervals, missing components) when the format
	// can represent them, so synth can emit QC-gate test fixtures.
	Encode(w io.Writer, rec Record) error
}

// formats is the registry, in sniffing order.  Magic-based detection tries
// each format in this order; the native format comes first so its
// unambiguous magic line always wins.
var formats = []Format{v1Format{}, v1aFormat{}, mseedFormat{}, csvFormat{}}

// Formats returns the registered formats in sniffing order.
func Formats() []Format { return formats }

// Names returns the registry keys in sniffing order.
func Names() []string {
	out := make([]string, len(formats))
	for i, f := range formats {
		out[i] = f.Name()
	}
	return out
}

// ByName resolves a registry key (as given to -format).
func ByName(name string) (Format, error) {
	for _, f := range formats {
		if f.Name() == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("ingest: unknown format %q (have %s)", name, strings.Join(Names(), ", "))
}

// ByExtension resolves a file extension (with dot, case-insensitive).
func ByExtension(ext string) (Format, bool) {
	ext = strings.ToLower(ext)
	for _, f := range formats {
		if f.Extension() == ext {
			return f, true
		}
	}
	return nil, false
}

// Detect identifies the format of a record file: magic bytes first (in
// registry order — content beats naming), file extension second.  It
// returns ErrUnknownFormat when neither matches.
func Detect(name string, prefix []byte) (Format, error) {
	for _, f := range formats {
		if f.Sniff(prefix) {
			return f, nil
		}
	}
	if f, ok := ByExtension(path.Ext(name)); ok {
		return f, nil
	}
	return nil, &UnknownFormatError{Name: name}
}

// SniffAny returns the format whose magic claims the prefix, in registry
// order — magic only, no extension fallback.  The pipeline's gather step
// uses it so per-component products, which share the ".v1" extension but
// carry a different magic, are never mistaken for inputs.
func SniffAny(prefix []byte) (Format, bool) {
	for _, f := range formats {
		if f.Sniff(prefix) {
			return f, true
		}
	}
	return nil, false
}

// StationOf derives the station code from a record file name by stripping
// its registered format extension; ok=false when the extension belongs to
// no registered format or nothing precedes it.
func StationOf(name string) (string, bool) {
	ext := path.Ext(name)
	if _, ok := ByExtension(ext); !ok {
		return "", false
	}
	st := strings.TrimSuffix(name, ext)
	return st, st != ""
}

// sniffPrefix reads the leading SniffLen bytes of path through fsys.
func sniffPrefix(fsys smformat.StreamFS, path string) ([]byte, error) {
	rc, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	buf := make([]byte, SniffLen)
	n, err := io.ReadFull(rc, buf)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	return buf[:n], nil
}

// hasMagicLine reports whether prefix begins with the given magic line
// (allowing the prefix to truncate the magic when the sniff window is
// shorter than the line).
func hasMagicLine(prefix []byte, magic string) bool {
	if len(prefix) >= len(magic) {
		return string(prefix[:len(magic)]) == magic
	}
	return len(prefix) > 0 && bytes.HasPrefix([]byte(magic), prefix)
}

// rotate returns rec with its horizontals rotated from the sensor frame
// (longitudinal axis at rec.Azimuth degrees) back to the north-aligned
// frame.  Azimuth 0 is the identity and returns rec untouched, preserving
// byte-identity of unrotated inputs.
func rotate(rec Record) (Record, error) {
	if rec.Azimuth == 0 {
		return rec, nil
	}
	sr := seismic.Record{Station: rec.Station}
	for ci := range rec.Accel {
		sr.Accel[ci] = seismic.Trace{DT: rec.DT[ci], Data: rec.Accel[ci]}
	}
	out, err := seismic.RotateHorizontal(sr, rec.Azimuth)
	if err != nil {
		return Record{}, fmt.Errorf("ingest: rotate %s by %g°: %w", rec.Station, rec.Azimuth, err)
	}
	rec.Azimuth = 0
	for ci := range rec.Accel {
		rec.Accel[ci] = out.Accel[ci].Data
	}
	return rec, nil
}
