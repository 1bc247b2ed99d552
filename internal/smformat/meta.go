package smformat

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"accelproc/internal/dsp"
	"accelproc/internal/numtext"
	"accelproc/internal/seismic"
)

// SignalKey identifies one component signal of one station, the unit the
// filter-parameter and max-value metadata is keyed by.
type SignalKey struct {
	Station   string
	Component seismic.Component
}

func (k SignalKey) String() string { return k.Station + k.Component.Suffix() }

// sortedKeys returns map keys in deterministic (station, component) order so
// metadata files are byte-identical across runs and pipeline variants.
func sortedKeys[V any](m map[SignalKey]V) []SignalKey {
	keys := make([]SignalKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Station != keys[j].Station {
			return keys[i].Station < keys[j].Station
		}
		return keys[i].Component < keys[j].Component
	})
	return keys
}

const filterParamsMagic = "FILTER PARAMETERS"

// FilterParams is the pipeline's "filter params" metadata file: the default
// band-pass corners written by process #2 and, after the Fourier analysis of
// process #10, the per-signal corners used for the definitive correction.
type FilterParams struct {
	Default   dsp.BandPassSpec
	PerSignal map[SignalKey]dsp.BandPassSpec
}

// Spec returns the corners to use for a signal: its per-signal entry if
// present, the default otherwise.
func (p FilterParams) Spec(key SignalKey) dsp.BandPassSpec {
	if s, ok := p.PerSignal[key]; ok {
		return s
	}
	return p.Default
}

// Write serializes the filter-parameter file with deterministic ordering.
func (p FilterParams) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	err := func() error {
		if _, err := fmt.Fprintln(bw, filterParamsMagic); err != nil {
			return err
		}
		if err := writeSpecLine(bw, "DEFAULT", "-", p.Default); err != nil {
			return err
		}
		if err := writeHeaderInt(bw, "NSIGNALS", len(p.PerSignal)); err != nil {
			return err
		}
		for _, k := range sortedKeys(p.PerSignal) {
			if err := writeSpecLine(bw, k.Station, k.Component.Suffix(), p.PerSignal[k]); err != nil {
				return err
			}
		}
		return nil
	}()
	return flush(bw, err)
}

func writeSpecLine(w *bufio.Writer, station, comp string, s dsp.BandPassSpec) error {
	return writeSignalLine(w, station, comp, s.FSL, s.FPL, s.FPH, s.FSH)
}

// writeSignalLine writes "<station> <comp> <v>...", the line layout of the
// filter-parameter and max-values files.
func writeSignalLine(w *bufio.Writer, station, comp string, vs ...float64) error {
	buf, err := lineBuf(w)
	if err != nil {
		return err
	}
	buf = append(buf, station...)
	buf = append(buf, ' ')
	buf = append(buf, comp...)
	for _, f := range vs {
		buf = append(buf, ' ')
		buf = numtext.AppendE17(buf, f)
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

func parseSpecLine(fields []string) (station, comp string, s dsp.BandPassSpec, err error) {
	if len(fields) != 6 {
		return "", "", s, fmt.Errorf("smformat: filter line has %d fields, want 6", len(fields))
	}
	vals := make([]float64, 4)
	for i := 0; i < 4; i++ {
		vals[i], err = numtext.ParseFloat(fields[2+i])
		if err != nil {
			return "", "", s, fmt.Errorf("smformat: filter line: %v", err)
		}
	}
	return fields[0], fields[1], dsp.BandPassSpec{FSL: vals[0], FPL: vals[1], FPH: vals[2], FSH: vals[3]}, nil
}

// ParseFilterParams reads a filter-parameter file.
func ParseFilterParams(r io.Reader) (FilterParams, error) {
	sc := newScanner(r)
	if !sc.Scan() || sc.Text() != filterParamsMagic {
		return FilterParams{}, fmt.Errorf("smformat: not a filter-parameter file (missing %q)", filterParamsMagic)
	}
	var p FilterParams
	if !sc.Scan() {
		return FilterParams{}, fmt.Errorf("smformat: filter-parameter file missing DEFAULT line")
	}
	station, _, spec, err := parseSpecLine(strings.Fields(sc.Text()))
	if err != nil {
		return FilterParams{}, err
	}
	if station != "DEFAULT" {
		return FilterParams{}, fmt.Errorf("smformat: filter-parameter file: first line is %q, want DEFAULT", station)
	}
	p.Default = spec
	h := &headerReader{sc: sc, line: 2}
	n, err := h.expectInt("NSIGNALS")
	if err != nil {
		return FilterParams{}, err
	}
	if n < 0 {
		return FilterParams{}, fmt.Errorf("smformat: NSIGNALS %d must be non-negative", n)
	}
	p.PerSignal = make(map[SignalKey]dsp.BandPassSpec, n)
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return FilterParams{}, err
			}
			return FilterParams{}, fmt.Errorf("smformat: filter-parameter file truncated at signal %d", i)
		}
		station, compStr, spec, err := parseSpecLine(strings.Fields(sc.Text()))
		if err != nil {
			return FilterParams{}, err
		}
		comp, err := seismic.ParseComponent(compStr)
		if err != nil {
			return FilterParams{}, err
		}
		key := SignalKey{Station: station, Component: comp}
		if _, dup := p.PerSignal[key]; dup {
			return FilterParams{}, fmt.Errorf("smformat: duplicate filter entry for %s", key)
		}
		p.PerSignal[key] = spec
	}
	return p, nil
}

const fileListMagic = "FILELIST"

// FileList is a named list of file names, the metadata product of the
// pipeline's lightweight "initialize metadata" processes (#1, #5, #8, #17).
type FileList struct {
	Name  string // list identity, e.g. "v1list", "fourier-graph"
	Files []string
}

// Write serializes the file list.
func (l FileList) Write(w io.Writer) error {
	if l.Name == "" || strings.ContainsAny(l.Name, " \t\n") {
		return fmt.Errorf("smformat: invalid file-list name %q", l.Name)
	}
	bw := bufio.NewWriter(w)
	err := func() error {
		if _, err := fmt.Fprintf(bw, "%s %s\n", fileListMagic, l.Name); err != nil {
			return err
		}
		if err := writeHeaderInt(bw, "NFILES", len(l.Files)); err != nil {
			return err
		}
		for _, f := range l.Files {
			if f == "" || strings.ContainsAny(f, "\n") {
				return fmt.Errorf("smformat: invalid file name %q in list %s", f, l.Name)
			}
			if _, err := fmt.Fprintln(bw, f); err != nil {
				return err
			}
		}
		return nil
	}()
	return flush(bw, err)
}

// ParseFileList reads a file list.
func ParseFileList(r io.Reader) (FileList, error) {
	sc := newScanner(r)
	if !sc.Scan() {
		return FileList{}, fmt.Errorf("smformat: empty file list")
	}
	magic, name, ok := strings.Cut(sc.Text(), " ")
	if !ok || magic != fileListMagic {
		return FileList{}, fmt.Errorf("smformat: not a file list (bad header %q)", sc.Text())
	}
	l := FileList{Name: name}
	h := &headerReader{sc: sc, line: 1}
	n, err := h.expectInt("NFILES")
	if err != nil {
		return FileList{}, err
	}
	if n < 0 {
		return FileList{}, fmt.Errorf("smformat: NFILES %d must be non-negative", n)
	}
	l.Files = make([]string, 0, n)
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return FileList{}, err
			}
			return FileList{}, fmt.Errorf("smformat: file list %s truncated at entry %d", l.Name, i)
		}
		f := strings.TrimSpace(sc.Text())
		if f == "" {
			return FileList{}, fmt.Errorf("smformat: file list %s has empty entry %d", l.Name, i)
		}
		l.Files = append(l.Files, f)
	}
	return l, nil
}

const maxValuesMagic = "MAX VALUES"

// MaxValues is the "max values" metadata file the filter processes produce:
// the peak ground motion of every corrected signal.
type MaxValues struct {
	Peaks map[SignalKey]seismic.PeakValues
}

// Write serializes the max-values file with deterministic ordering.
func (m MaxValues) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	err := func() error {
		if _, err := fmt.Fprintln(bw, maxValuesMagic); err != nil {
			return err
		}
		if err := writeHeaderInt(bw, "NSIGNALS", len(m.Peaks)); err != nil {
			return err
		}
		for _, k := range sortedKeys(m.Peaks) {
			p := m.Peaks[k]
			if err := writeSignalLine(bw, k.Station, k.Component.Suffix(),
				p.PGA, p.TimePGA, p.PGV, p.TimePGV, p.PGD, p.TimePGD); err != nil {
				return err
			}
		}
		return nil
	}()
	return flush(bw, err)
}

// ParseMaxValues reads a max-values file.
func ParseMaxValues(r io.Reader) (MaxValues, error) {
	sc := newScanner(r)
	if !sc.Scan() || sc.Text() != maxValuesMagic {
		return MaxValues{}, fmt.Errorf("smformat: not a max-values file (missing %q)", maxValuesMagic)
	}
	h := &headerReader{sc: sc, line: 1}
	n, err := h.expectInt("NSIGNALS")
	if err != nil {
		return MaxValues{}, err
	}
	if n < 0 {
		return MaxValues{}, fmt.Errorf("smformat: NSIGNALS %d must be non-negative", n)
	}
	m := MaxValues{Peaks: make(map[SignalKey]seismic.PeakValues, n)}
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return MaxValues{}, err
			}
			return MaxValues{}, fmt.Errorf("smformat: max-values file truncated at signal %d", i)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != 8 {
			return MaxValues{}, fmt.Errorf("smformat: max-values line has %d fields, want 8", len(fields))
		}
		comp, err := seismic.ParseComponent(fields[1])
		if err != nil {
			return MaxValues{}, err
		}
		vals := make([]float64, 6)
		for j := range vals {
			vals[j], err = numtext.ParseFloat(fields[2+j])
			if err != nil {
				return MaxValues{}, fmt.Errorf("smformat: max-values line: %v", err)
			}
		}
		key := SignalKey{Station: fields[0], Component: comp}
		if _, dup := m.Peaks[key]; dup {
			return MaxValues{}, fmt.Errorf("smformat: duplicate max-values entry for %s", key)
		}
		m.Peaks[key] = seismic.PeakValues{
			PGA: vals[0], TimePGA: vals[1],
			PGV: vals[2], TimePGV: vals[3],
			PGD: vals[4], TimePGD: vals[5],
		}
	}
	return m, nil
}
