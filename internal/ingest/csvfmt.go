package ingest

import (
	"bufio"
	"io"
	"strings"

	"accelproc/internal/numtext"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
)

// csvFormat is a comma-separated text format: a magic comment line,
// station/azimuth/dt metadata comments, a column-name header row naming
// the recorded components, then one row per time step with one full-
// precision sample per column.  A shorter column trails off into empty
// cells, so mismatched component lengths are representable (and rejected
// by the QC gate, not the parser).  Values round-trip at full float64
// precision.
type csvFormat struct{}

// csvMagic is the first line of every ingest CSV file; it doubles as the
// sniffing magic, since bare CSV has none of its own.
const csvMagic = "# accelproc csv v1"

func (csvFormat) Name() string      { return "csv" }
func (csvFormat) Extension() string { return ".csv" }

func (csvFormat) Sniff(prefix []byte) bool { return hasMagicLine(prefix, csvMagic) }

func csvFloat(v float64) string { return string(numtext.AppendE17(nil, v)) }

func (csvFormat) Encode(w io.Writer, rec Record) error {
	bw := bufio.NewWriter(w)
	var cols []int // component indices with samples, canonical order
	for ci := range seismic.Components {
		if len(rec.Accel[ci]) > 0 {
			cols = append(cols, ci)
		}
	}
	write := func(s string) error {
		_, err := bw.WriteString(s)
		return err
	}
	err := func() error {
		if err := write(csvMagic + "\n"); err != nil {
			return err
		}
		if err := write("# station: " + rec.Station + "\n"); err != nil {
			return err
		}
		if err := write("# azimuth: " + csvFloat(rec.Azimuth) + "\n"); err != nil {
			return err
		}
		parts := make([]string, len(cols))
		for i, ci := range cols {
			parts[i] = csvFloat(rec.DT[ci])
		}
		if err := write("# dt: " + strings.Join(parts, ",") + "\n"); err != nil {
			return err
		}
		for i, ci := range cols {
			parts[i] = seismic.Components[ci].String()
		}
		if err := write(strings.Join(parts, ",") + "\n"); err != nil {
			return err
		}
		rows := 0
		for _, ci := range cols {
			if n := len(rec.Accel[ci]); n > rows {
				rows = n
			}
		}
		for row := 0; row < rows; row++ {
			for i, ci := range cols {
				if i > 0 {
					if err := bw.WriteByte(','); err != nil {
						return err
					}
				}
				if row < len(rec.Accel[ci]) {
					if _, err := bw.Write(numtext.AppendE17(bw.AvailableBuffer(), rec.Accel[ci][row])); err != nil {
						return err
					}
				}
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		return err
	}
	return bw.Flush()
}

// csvMeta parses a "# key: value" comment line.
func csvMeta(line, key string) (string, bool) {
	rest, ok := strings.CutPrefix(line, "# "+key+": ")
	return strings.TrimSpace(rest), ok
}

func (csvFormat) Decode(r io.Reader) (Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	next := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.EOF
		}
		line++
		return sc.Text(), nil
	}
	first, err := next()
	if err != nil || first != csvMagic {
		return Record{}, decodeErrf("csv", 1, "not an ingest CSV file (missing %q)", csvMagic)
	}
	var rec Record
	station, err := next()
	if err != nil {
		return Record{}, decodeErrf("csv", line+1, "unexpected end of file, want station comment")
	}
	v, ok := csvMeta(station, "station")
	if !ok {
		return Record{}, decodeErrf("csv", line, "got %q, want %q comment", station, "# station: ...")
	}
	rec.Station = v
	azline, err := next()
	if err != nil {
		return Record{}, decodeErrf("csv", line+1, "unexpected end of file, want azimuth comment")
	}
	if v, ok = csvMeta(azline, "azimuth"); !ok {
		return Record{}, decodeErrf("csv", line, "got %q, want %q comment", azline, "# azimuth: ...")
	}
	if rec.Azimuth, err = numtext.ParseFloat(v); err != nil {
		return Record{}, decodeErrf("csv", line, "bad azimuth %q: %v", v, err)
	}
	dtline, err := next()
	if err != nil {
		return Record{}, decodeErrf("csv", line+1, "unexpected end of file, want dt comment")
	}
	if v, ok = csvMeta(dtline, "dt"); !ok {
		return Record{}, decodeErrf("csv", line, "got %q, want %q comment", dtline, "# dt: ...")
	}
	dts := strings.Split(v, ",")
	header, err := next()
	if err != nil {
		return Record{}, decodeErrf("csv", line+1, "unexpected end of file, want column header")
	}
	names := strings.Split(header, ",")
	if len(names) != len(dts) {
		return Record{}, decodeErrf("csv", line, "%d columns but %d dt values", len(names), len(dts))
	}
	if len(names) > len(seismic.Components) {
		return Record{}, decodeErrf("csv", line, "%d columns, want at most %d", len(names), len(seismic.Components))
	}
	cols := make([]int, len(names))
	for i, name := range names {
		comp, err := seismic.ParseComponent(name)
		if err != nil {
			return Record{}, decodeErrf("csv", line, "unknown component column %q", name)
		}
		ci := int(comp)
		if len(cols) > 0 {
			for _, prev := range cols[:i] {
				if prev == ci {
					return Record{}, decodeErrf("csv", line, "duplicate %s column", comp)
				}
			}
		}
		cols[i] = ci
		x, err := numtext.ParseFloat(strings.TrimSpace(dts[i]))
		if err != nil {
			return Record{}, decodeErrf("csv", line, "bad dt %q: %v", dts[i], err)
		}
		rec.DT[ci] = x
	}
	for {
		row, err := next()
		if err != nil {
			break
		}
		cells := strings.Split(row, ",")
		if len(cells) != len(cols) {
			return Record{}, decodeErrf("csv", line, "%d cells in row, want %d", len(cells), len(cols))
		}
		for i, cell := range cells {
			cell = strings.TrimSpace(cell)
			if cell == "" {
				continue // a shorter column's trailing padding
			}
			x, err := numtext.ParseFloat(cell)
			if err != nil {
				return Record{}, decodeErrf("csv", line, "bad sample %q: %v", cell, err)
			}
			ci := cols[i]
			rec.Accel[ci] = append(rec.Accel[ci], x)
		}
	}
	return rec, nil
}

// DecodeChunked materializes the record: rows interleave the components,
// so per-component chunks require the whole table.
func (f csvFormat) DecodeChunked(fsys smformat.StreamFS, path string) (ChunkReader, error) {
	return materializedChunks(f, fsys, path)
}
