package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"accelproc/internal/dsp"
	"accelproc/internal/fourier"
	"accelproc/internal/ingest"
	"accelproc/internal/plotps"
	"accelproc/internal/response"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
	"accelproc/internal/storage"
)

// This file implements the 20 processes of the chain.  An event-global
// process is one method on *state; a process that iterates over records is
// its per-unit body (a station, signal or file), which the step compiler
// (steps.go) and the Pipelined graph schedule as dataflow nodes.  Every
// body reads its inputs from and writes its outputs to the work directory,
// exactly as the legacy programs do.

// procInitFlags is process #0 (and, via procInitFlags2, #11): write the ten
// runtime flags of the legacy driver.
func (s *state) procInitFlags() error {
	flags := smformat.FileList{Name: "flags"}
	for i := 0; i < 10; i++ {
		flags.Files = append(flags.Files, fmt.Sprintf("flag%02d=0", i))
	}
	return smformat.WriteFileListFileFS(s.ws, s.path(smformat.FlagsFile), flags)
}

// procGatherInputs is process #1: scan the work directory for input record
// files in any registered ingest format and write the v1list metadata.
// Recognition is by magic bytes, so per-component products (which share the
// ".v1" extension on a rerun of a used work directory but carry a different
// magic) are never gathered.  A -format override additionally admits
// magicless files carrying the override's extension, but still never a file
// whose magic belongs to the per-component product.
func (s *state) procGatherInputs() error {
	entries, err := s.ws.List(s.dir)
	if err != nil {
		return err
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		prefix, err := sniffHead(s.ws, s.path(name))
		if errors.Is(err, fs.ErrNotExist) {
			// Renamed away since the listing: the temp file of a metadata
			// write that a concurrent stage-I task just completed.
			continue
		}
		if err != nil {
			return err
		}
		ok := false
		if f := s.informat; f != nil {
			ok = f.Sniff(prefix) ||
				(strings.EqualFold(path.Ext(name), f.Extension()) &&
					!hasLine(prefix, smformat.V1ComponentMagic))
		} else {
			_, ok = ingest.SniffAny(prefix)
		}
		if ok {
			files = append(files, name)
		}
	}
	if len(files) == 0 {
		return fmt.Errorf("no input record files in %s", s.dir)
	}
	sort.Strings(files)
	return smformat.WriteFileListFileFS(s.ws, s.path(smformat.V1ListFile), smformat.FileList{Name: "v1list", Files: files})
}

// procInitFilterParams is process #2: write the default filter corners.
func (s *state) procInitFilterParams() error {
	params := smformat.FilterParams{
		Default:   fourier.DefaultSpec(),
		PerSignal: map[smformat.SignalKey]dsp.BandPassSpec{},
	}
	return s.writeFilterParams(s.path(smformat.FilterParamsFile), params)
}

// separateStation decodes one station's input record through the ingest
// plane — format resolution, the QC gate, component rotation — and splits it
// into its three per-component files: the per-record unit of process #3,
// scheduled directly as a dataflow node by the pipelined variant.
//
// Rejections are graceful degradation, not run failures: an undecodable
// file, a QC defect, or an unrotatable record classifies as permanent
// (ingest.ErrReject), the retry engine quarantines the record with its
// typed reason, and the event continues with the survivors.  Transient I/O
// failures retry under the usual policy first.
func (s *state) separateStation(st string) error {
	rc := recordSite{stage: StageIII, proc: PSeparateComponents, station: st}
	name, err := s.inputFileOf(st)
	if err != nil {
		return err
	}
	var v1 smformat.V1
	err = s.retryOp(rc, "decode", func() error {
		var derr error
		v1, derr = s.readRecord(s.path(name))
		return derr
	})
	if err = s.degraded(rc, err); err != nil || s.isQuarantined(st) {
		return err
	}
	for ci, comp := range seismic.Components {
		vc := smformat.V1Component{
			Station:   st,
			Component: comp,
			DT:        v1.DT,
			Accel:     v1.Accel[ci],
		}
		if err := s.writeV1Comp(s.path(smformat.V1ComponentFileName(st, comp)), vc); err != nil {
			return err
		}
	}
	return nil
}

// correctSignal performs the shared work of processes #4 and #13: band-pass
// filter one per-component V1 with the given corners, integrate to velocity
// and displacement, and return the V2 payload plus its peaks.
func (s *state) correctSignal(v1 smformat.V1Component, spec dsp.BandPassSpec) (smformat.V2, seismic.PeakValues, error) {
	raw := v1.Accel
	if s.opts.Instrument != nil {
		corrected, err := s.opts.Instrument.Correct(raw, v1.DT, 0)
		if err != nil {
			return smformat.V2{}, seismic.PeakValues{}, fmt.Errorf("instrument correction: %w", err)
		}
		raw = corrected
	}
	accel, err := dsp.BandPass(raw, v1.DT, spec, s.opts.TaperFraction)
	if err != nil {
		return smformat.V2{}, seismic.PeakValues{}, err
	}
	dsp.Detrend(accel) // baseline correction after filtering
	vel := dsp.Integrate(accel, v1.DT)
	disp := dsp.Integrate(vel, v1.DT)
	peaks, err := seismic.Peaks(seismic.Trace{DT: v1.DT, Data: accel})
	if err != nil {
		return smformat.V2{}, seismic.PeakValues{}, err
	}
	v2 := smformat.V2{
		Station:   v1.Station,
		Component: v1.Component,
		DT:        v1.DT,
		Filter:    spec,
		Peaks:     peaks,
		Accel:     accel,
		Vel:       vel,
		Disp:      disp,
	}
	return v2, peaks, nil
}

// filterSignal band-pass corrects one component's V1 file in dir into its
// V2 file there and returns its peaks: the per-signal unit of processes #4
// and #13.
func (s *state) filterSignal(dir string, key smformat.SignalKey, spec dsp.BandPassSpec) (seismic.PeakValues, error) {
	v1, err := s.readV1Comp(filepath.Join(dir, smformat.V1ComponentFileName(key.Station, key.Component)))
	if err != nil {
		return seismic.PeakValues{}, err
	}
	v2, pk, err := s.correctSignal(v1, spec)
	if err != nil {
		return seismic.PeakValues{}, err
	}
	return pk, s.writeV2(filepath.Join(dir, smformat.V2FileName(key.Station, key.Component)), v2)
}

// filterRecord corrects one record's three components inside a temp-folder
// job's scratch folder dir with the corners of dir's filter-params file,
// leaving their peaks in peaks: the program a filter job runs.
func (s *state) filterRecord(dir, st string, peaks []seismic.PeakValues) error {
	params, err := s.readFilterParams(filepath.Join(dir, smformat.FilterParamsFile))
	if err != nil {
		return err
	}
	for ci, comp := range seismic.Components {
		key := smformat.SignalKey{Station: st, Component: comp}
		if peaks[ci], err = s.filterSignal(dir, key, params.Spec(key)); err != nil {
			return err
		}
	}
	return nil
}

// procInitMetadata is process #5 (and #14): derive the acc-graph, fourier,
// and response file lists from the v1list.  The metadata processes list
// every gathered record, quarantined or not, so their lists do not depend
// on how far the schedule got before a verdict; the per-record bodies skip
// quarantined records themselves.
func (s *state) procInitMetadata() error {
	stations, err := s.recordStations()
	if err != nil {
		return err
	}
	var v2names, rnames []string
	for _, key := range signals(stations) {
		v2names = append(v2names, smformat.V2FileName(key.Station, key.Component))
		rnames = append(rnames, smformat.ResponseFileName(key.Station, key.Component))
	}
	if err := smformat.WriteFileListFileFS(s.ws, s.path(smformat.AccGraphFile),
		smformat.FileList{Name: "acc-graph", Files: v2names}); err != nil {
		return err
	}
	if err := smformat.WriteFileListFileFS(s.ws, s.path(smformat.FourierMetaFile),
		smformat.FileList{Name: "fourier", Files: v2names}); err != nil {
		return err
	}
	return smformat.WriteFileListFileFS(s.ws, s.path(smformat.ResponseMetaFile),
		smformat.FileList{Name: "response", Files: rnames})
}

// plotUncorrectedStation plots one station's raw signals to <s>.ps: the
// per-record unit of the redundant process #6.  The page is overwritten
// later by process #15, which is why the optimization drops this process
// entirely.
func (s *state) plotUncorrectedStation(st string) error {
	var panels []plotps.Plot
	for _, comp := range seismic.Components {
		v1, err := s.readV1Comp(s.path(smformat.V1ComponentFileName(st, comp)))
		if err != nil {
			return err
		}
		t := make([]float64, len(v1.Accel))
		for i := range t {
			t[i] = float64(i) * v1.DT
		}
		panels = append(panels, plotps.Plot{
			Axes: plotps.Axes{
				Title:  st + comp.Suffix() + " uncorrected acceleration",
				XLabel: "Time (s)", YLabel: "cm/s^2",
			},
			Series: []plotps.Series{{Label: "acc", X: t, Y: v1.Accel}},
		})
	}
	return s.writePlotFile(s.path(smformat.AccelPlotFileName(st)), "Uncorrected "+st, panels)
}

// fourierSignal computes the Fourier spectra of one corrected component
// file in dir and writes them there: the per-signal unit of process #7.
func (s *state) fourierSignal(dir, name string) error {
	v2, err := s.readV2(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	f, err := fourier.Spectra(v2)
	if err != nil {
		return err
	}
	return s.writeFourier(filepath.Join(dir, smformat.FourierFileName(v2.Station, v2.Component)), f)
}

// fourierRecord transforms one record's three components inside dir: the
// per-record unit of process #7.
func (s *state) fourierRecord(dir, st string) error {
	for _, comp := range seismic.Components {
		if err := s.fourierSignal(dir, smformat.V2FileName(st, comp)); err != nil {
			return err
		}
	}
	return nil
}

// procInitFourierGraph is process #8: the fourier-graph file list.
func (s *state) procInitFourierGraph() error {
	stations, err := s.recordStations()
	if err != nil {
		return err
	}
	var names []string
	for _, key := range signals(stations) {
		names = append(names, smformat.FourierFileName(key.Station, key.Component))
	}
	return smformat.WriteFileListFileFS(s.ws, s.path(smformat.FourierGraphFile),
		smformat.FileList{Name: "fourier-graph", Files: names})
}

// plotFourierStation draws one station's <s>f.ps page, the per-record unit
// of process #9: the velocity Fourier spectrum of each of the three
// components, marked with the FPL/FSL inflection corners as in the paper's
// Figure 3.  The corners are derived from the spectrum itself (the same
// deterministic pick that process #10 stores), because in the original
// chain this plot is drawn before process #10 runs, while the reordered
// schedule draws it at the end — deriving them locally keeps every
// variant's plot byte-identical.
func (s *state) plotFourierStation(st string) error {
	var panels []plotps.Plot
	for _, comp := range seismic.Components {
		f, err := s.readFourier(s.path(smformat.FourierFileName(st, comp)))
		if err != nil {
			return err
		}
		spec, err := fourier.CalculateInflectionPoint(f, s.opts.Pick)
		if err != nil {
			return err
		}
		periods := make([]float64, 0, len(f.Vel)-1)
		vel := make([]float64, 0, len(f.Vel)-1)
		for k := len(f.Vel) - 1; k >= 1; k-- {
			periods = append(periods, 1/f.Frequency(k))
			vel = append(vel, f.Vel[k])
		}
		var markers []plotps.Marker
		if spec.FPL > 0 {
			markers = append(markers, plotps.Marker{Label: "FPL", X: 1 / spec.FPL})
		}
		if spec.FSL > 0 {
			markers = append(markers, plotps.Marker{Label: "FSL", X: 1 / spec.FSL})
		}
		panels = append(panels, plotps.Plot{
			Axes: plotps.Axes{
				Title:  st + comp.Suffix() + " Fourier velocity",
				XLabel: "Period (s)", YLabel: "cm", XLog: true, YLog: true,
			},
			Series:  []plotps.Series{{Label: "vel", X: periods, Y: vel}},
			Markers: markers,
		})
	}
	return s.writePlotFile(s.path(smformat.FourierPlotFileName(st)), "Fourier spectra "+st, panels)
}

// pickSignalSpec picks the FPL/FSL corners of one component spectrum: the
// per-signal unit of process #10.
func (s *state) pickSignalSpec(st string, comp seismic.Component) (dsp.BandPassSpec, error) {
	f, err := s.readFourier(s.path(smformat.FourierFileName(st, comp)))
	if err != nil {
		return dsp.BandPassSpec{}, err
	}
	return fourier.CalculateInflectionPoint(f, s.opts.Pick)
}

// responseSignal computes and writes the response spectrum of one corrected
// component file: the per-signal unit of process #16.
func (s *state) responseSignal(name string) error {
	v2, err := s.readV2(s.path(name))
	if err != nil {
		return err
	}
	r, err := response.Spectrum(v2, s.opts.Response)
	if err != nil {
		return err
	}
	return s.writeResponse(s.path(smformat.ResponseFileName(v2.Station, v2.Component)), r)
}

// procInitResponseGraph is process #17: the response-graph file list.
func (s *state) procInitResponseGraph() error {
	stations, err := s.recordStations()
	if err != nil {
		return err
	}
	var names []string
	for _, key := range signals(stations) {
		names = append(names, smformat.ResponseFileName(key.Station, key.Component))
	}
	return smformat.WriteFileListFileFS(s.ws, s.path(smformat.ResponseGraphFile),
		smformat.FileList{Name: "response-graph", Files: names})
}

// plotAccelStation draws one station's corrected accelerogram page <s>.ps:
// the per-record unit of process #15.
func (s *state) plotAccelStation(st string) error {
	var panels []plotps.Plot
	for _, comp := range seismic.Components {
		v2, err := s.readV2(s.path(smformat.V2FileName(st, comp)))
		if err != nil {
			return err
		}
		t := make([]float64, len(v2.Accel))
		for i := range t {
			t[i] = float64(i) * v2.DT
		}
		panels = append(panels, plotps.Plot{
			Axes: plotps.Axes{
				Title:  st + comp.Suffix() + " corrected acceleration",
				XLabel: "Time (s)", YLabel: "cm/s^2",
			},
			Series: []plotps.Series{{Label: "acc", X: t, Y: v2.Accel}},
		})
	}
	return s.writePlotFile(s.path(smformat.AccelPlotFileName(st)), "Accelerogram "+st, panels)
}

// plotResponseStation draws one station's response-spectra page <s>r.ps: the
// per-record unit of process #18.
func (s *state) plotResponseStation(st string) error {
	var panels []plotps.Plot
	for _, comp := range seismic.Components {
		r, err := s.readResponse(s.path(smformat.ResponseFileName(st, comp)))
		if err != nil {
			return err
		}
		panels = append(panels, plotps.Plot{
			Axes: plotps.Axes{
				Title:  fmt.Sprintf("%s%s response (%.0f%% damping)", st, comp.Suffix(), r.Damping*100),
				XLabel: "Period (s)", YLabel: "SA/SV/SD", XLog: true, YLog: true,
			},
			Series: []plotps.Series{
				{Label: "SA", X: r.Periods, Y: r.SA},
				{Label: "SV", X: r.Periods, Y: r.SV},
				{Label: "SD", X: r.Periods, Y: r.SD},
			},
		})
	}
	return s.writePlotFile(s.path(smformat.ResponsePlotFileName(st)), "Response spectra "+st, panels)
}

// gemJob splits one V2 or R file into its three GEM exports: the per-file
// unit of process #19.
func (s *state) gemJob(key smformat.SignalKey, isR bool) error {
	var gems [3]smformat.GEM
	if isR {
		r, err := s.readResponse(s.path(smformat.ResponseFileName(key.Station, key.Component)))
		if err != nil {
			return err
		}
		if gems, err = smformat.SplitResponse(r); err != nil {
			return err
		}
	} else {
		v2, err := s.readV2(s.path(smformat.V2FileName(key.Station, key.Component)))
		if err != nil {
			return err
		}
		var err2 error
		if gems, err2 = smformat.SplitV2(v2); err2 != nil {
			return err2
		}
	}
	for _, g := range gems {
		if err := s.writeGEM(s.path(g.FileName()), g); err != nil {
			return err
		}
	}
	return nil
}

// writeGEM writes one GEM export.  Streaming runs route it through the
// workspace's Create writer — on the mem backend that is a write-through
// stream, so the NPTS-scaled export never counts against resident bytes.
func (s *state) writeGEM(path string, g smformat.GEM) error {
	if s.opts.Streaming {
		return smformat.WriteFileCreateFS(s.ws, path, g)
	}
	return smformat.WriteGEMFileFS(s.ws, path, g)
}

// sniffHead reads the leading ingest.SniffLen bytes of a file, the window
// every registered format's magic fits in.  A shorter file yields a shorter
// prefix, not an error.
func sniffHead(ws storage.Workspace, name string) ([]byte, error) {
	f, err := ws.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, ingest.SniffLen)
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	return buf[:n], nil
}

// hasLine reports whether prefix begins with the given magic line (allowing
// the prefix to truncate the magic when the file is shorter than it).
func hasLine(prefix []byte, magic string) bool {
	if len(prefix) >= len(magic) {
		return string(prefix[:len(magic)]) == magic
	}
	return len(prefix) > 0 && bytes.HasPrefix([]byte(magic), prefix)
}

// writePlotFile renders one multi-panel page and writes it to path through
// the workspace.  Streaming runs render straight into the workspace's Create
// writer instead of a rendered-page buffer: plot pages scale with NPTS, and
// the mem backend's Create is write-through (never resident).
func (s *state) writePlotFile(path, title string, panels []plotps.Plot) error {
	if s.opts.Streaming {
		w, err := s.ws.Create(path)
		if err != nil {
			return err
		}
		if err := plotps.WritePage(w, title, panels); err != nil {
			abortCreate(w)
			return err
		}
		return w.Close()
	}
	var buf bytes.Buffer
	if err := plotps.WritePage(&buf, title, panels); err != nil {
		return err
	}
	return s.ws.WriteFile(path, buf.Bytes(), 0o644)
}
