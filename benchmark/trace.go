package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"accelproc/internal/artifact"
	"accelproc/internal/dataflow"
	"accelproc/internal/dsp"
	"accelproc/internal/fourier"
	"accelproc/internal/ingest"
	"accelproc/internal/obs"
	"accelproc/internal/parallel"
	"accelproc/internal/pipeline"
	"accelproc/internal/response"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
	"accelproc/internal/storage"
	"accelproc/internal/stream"
)

// processGroups maps each of the chain's processes to the pipeline.* metric
// its spans are charged to.
var processGroups = map[pipeline.ProcessID]string{
	pipeline.PSeparateComponents: "separate", pipeline.PSeparateComps2: "separate",
	pipeline.PDefaultFilter: "filter", pipeline.PCorrectedFilter: "filter",
	pipeline.PFourier: "fourier", pipeline.PPickCorners: "fourier",
	pipeline.PResponseSpectrum: "response",
	pipeline.PGenerateGEM:      "gem",
	pipeline.PPlotUncorrected:  "plot", pipeline.PPlotFourier: "plot",
	pipeline.PPlotAccel: "plot", pipeline.PPlotResponse: "plot",
}

var groupOrder = []string{"separate", "filter", "fourier", "response", "gem", "plot", "meta"}

// tracer is the traced pass: one observer receives the spans and metrics of
// every traced iteration and of the layer replay, and writes the spans to
// spans.jsonl.
type tracer struct {
	o    *obs.Observer
	col  *obs.Collector
	sink *obs.JSONLSink
	file *os.File
	s    series // the traced iterations' samples
	last map[string]float64
}

func newTracer(dir string) (*tracer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return nil, err
	}
	t := &tracer{col: &obs.Collector{}, sink: obs.NewJSONL(f), file: f, s: series{}, last: map[string]float64{}}
	t.o = obs.New(t.sink, t.col)
	return t, nil
}

func (t *tracer) close() error {
	err := t.sink.Err()
	if cerr := t.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// delta returns how much an observer total moved since the previous call.
func (t *tracer) delta(name string, v float64) float64 {
	d := v - t.last[name]
	t.last[name] = v
	return d
}

// afterIteration turns one traced iteration's spans and metric movements
// into samples.
func (t *tracer) afterIteration() {
	recs := t.col.Drain()
	for name, v := range spanMetrics(recs) {
		t.s.add(name, v)
	}
	var busy, idle, waitSum, waitN float64
	for _, scope := range []string{"pipeline", "dataflow", "fleet"} {
		busy += t.delta(scope+".busy", t.o.Counter(scope+"_worker_busy_seconds_total").Value())
		idle += t.delta(scope+".idle", t.o.Counter(scope+"_worker_idle_seconds_total").Value())
	}
	for _, scope := range []string{"dataflow", "fleet"} {
		h := t.o.Histogram(scope+"_queue_wait_seconds", nil)
		waitSum += t.delta(scope+".wait_sum", h.Sum())
		waitN += t.delta(scope+".wait_n", float64(h.Count()))
	}
	t.s.add("parallel.worker_busy_s", busy)
	t.s.add("parallel.worker_idle_s", idle)
	if waitN > 0 {
		t.s.add("dataflow.ready_wait_ms", 1000*waitSum/waitN)
	}
}

// spanMetrics derives the per-iteration pipeline metrics from its spans:
// time per process group (process spans of the staged variants, node spans
// of the dataflow executor), each run span's time covered by none of its
// children, and the dataflow node and total span counts.
func spanMetrics(recs []obs.SpanRecord) map[string]float64 {
	m := map[string]float64{"obs.spans": float64(len(recs))}
	for _, g := range groupOrder {
		m["pipeline."+g+"_s"] = 0
	}
	children := map[int64][]obs.SpanRecord{}
	var nodes float64
	for _, r := range recs {
		children[r.Parent] = append(children[r.Parent], r)
		isNode := r.Kind == obs.KindTask && strings.HasPrefix(r.Name, "node:")
		if isNode {
			nodes++
		}
		pid, ok := r.IntAttr("process")
		if !ok || !(isNode || r.Kind == obs.KindProcess) {
			continue
		}
		g := processGroups[pipeline.ProcessID(pid)]
		if g == "" {
			g = "meta"
		}
		m["pipeline."+g+"_s"] += r.Duration.Seconds()
	}
	var unattributed time.Duration
	for _, r := range recs {
		if r.Kind == obs.KindRun && strings.HasPrefix(r.Name, "run:") {
			unattributed += r.Wall - covered(children[r.ID])
		}
	}
	m["pipeline.unattributed_s"] = unattributed.Seconds()
	m["dataflow.nodes"] = nodes
	return m
}

// covered returns the length of the union of the spans' wall intervals.
func covered(spans []obs.SpanRecord) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end time.Duration
	for _, s := range spans {
		lo, hi := s.Start, s.Start+s.Wall
		if lo < end {
			lo = end
		}
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// replay times each layer's public entry points on the workload's own
// inputs and the products its last iteration left in place, each call under
// a benchmark-side span named after the metric it feeds.  nodes is the
// workload's dataflow node count, replayed over no-op nodes.
func replay(b *bench, o *obs.Observer, nodes int) (map[string]float64, error) {
	root := o.Root("replay:"+b.w.name, obs.KindRun)
	defer root.End()
	m := map[string]float64{}
	layer := func(name string, fn func() error) error {
		sp := root.Child(name, obs.KindTask)
		t0 := time.Now()
		err := fn()
		m[name+"_s"] += time.Since(t0).Seconds()
		sp.End()
		return err
	}
	scratch := filepath.Join(b.root, "replay")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	ws := storage.Disk()

	seen := map[string]bool{}
	records := 0
	for _, set := range b.sets {
		if seen[set.dir] {
			continue
		}
		seen[set.dir] = true
		records += len(set.inputs)
		entries, err := os.ReadDir(set.dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			name := e.Name()
			path := filepath.Join(set.dir, name)
			if set.inputs[name] {
				err := layer("ingest.decode", func() error {
					_, _, err := ingest.ReadRecord(ws, path, nil, b.opts.QC)
					return err
				})
				if err != nil && !errors.Is(err, ingest.ErrReject) {
					return nil, err
				}
				info, err := e.Info()
				if err != nil {
					return nil, err
				}
				m["ingest.bytes"] += float64(info.Size())
				continue
			}
			var data []byte
			if err := layer("storage.read", func() (err error) {
				data, err = ws.ReadFile(path)
				return err
			}); err != nil {
				return nil, err
			}
			if err := layer("storage.write", func() error {
				tmp := filepath.Join(scratch, "tmp_"+name)
				if err := ws.WriteFile(tmp, data, 0o644); err != nil {
					return err
				}
				return ws.Rename(tmp, filepath.Join(scratch, name))
			}); err != nil {
				return nil, err
			}
			m["storage.ops"] += 3
			m["storage.bytes"] += float64(2 * len(data))
			if err := replayProduct(b, path, data, layer, m); err != nil {
				return nil, fmt.Errorf("replay %s: %w", path, err)
			}
		}
	}

	journal := filepath.Join(scratch, "journal")
	entry := []byte(strings.Repeat("j", 99) + "\n")
	for i := 0; i < 10*records+2; i++ {
		if err := layer("journal.append", func() error { return ws.Append(journal, entry, 0o644) }); err != nil {
			return nil, err
		}
		m["journal.bytes"] += float64(len(entry))
	}

	if err := replayRecordPlanes(b, scratch, ws, layer, m); err != nil {
		return nil, err
	}

	g := dataflow.New()
	for i := 0; i < nodes; i++ {
		var deps []dataflow.NodeID
		if i >= records {
			deps = append(deps, dataflow.NodeID(i-records))
		}
		g.Add(dataflow.Spec{Label: "noop", Run: func() error { return nil }}, deps...)
	}
	const dispatchReps = 20
	if err := layer("dataflow.dispatch", func() error {
		for r := 0; r < dispatchReps; r++ {
			if _, err := g.Execute(parallel.Workers(0), nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	m["dataflow.dispatch_us_per_node"] = 1e6 * m["dataflow.dispatch_s"] / float64(dispatchReps*max(nodes, 1))
	delete(m, "dataflow.dispatch_s")
	return m, nil
}

// replayProduct decodes and re-encodes one product file and replays the
// kernels that made it.
func replayProduct(b *bench, path string, data []byte, layer func(string, func() error) error, m map[string]float64) error {
	var buf bytes.Buffer
	switch filepath.Ext(path) {
	case ".v2":
		var v smformat.V2
		if err := layer("smformat.decode", func() (err error) {
			v, err = smformat.ParseV2(bytes.NewReader(data))
			return err
		}); err != nil {
			return err
		}
		if err := layer("smformat.encode", func() error { return v.Write(&buf) }); err != nil {
			return err
		}
		m["smformat.bytes"] += float64(len(data))
		if err := layer("fourier.spectra", func() error {
			_, err := fourier.Spectra(v)
			return err
		}); err != nil {
			return err
		}
		var r smformat.Response
		if err := layer("response.spectrum", func() (err error) {
			r, err = response.Spectrum(v, b.opts.Response)
			return err
		}); err != nil {
			return err
		}
		m["response.oscillator_points"] += float64(len(v.Accel) * len(r.Periods))
		raw, err := smformat.ReadV1ComponentFile(strings.TrimSuffix(path, ".v2") + ".v1")
		if err != nil {
			return err
		}
		if err := layer("dsp.bandpass", func() error {
			_, err := dsp.BandPass(raw.Accel, raw.DT, v.Filter, 0.05)
			return err
		}); err != nil {
			return err
		}
		if err := layer("dsp.fft", func() error {
			dsp.FFTReal(raw.Accel)
			return nil
		}); err != nil {
			return err
		}
		m["dsp.points"] += float64(len(raw.Accel))
	case ".f":
		var f smformat.Fourier
		if err := layer("smformat.decode", func() (err error) {
			f, err = smformat.ParseFourier(bytes.NewReader(data))
			return err
		}); err != nil {
			return err
		}
		if err := layer("smformat.encode", func() error { return f.Write(&buf) }); err != nil {
			return err
		}
		m["smformat.bytes"] += float64(len(data))
		return layer("fourier.pick", func() error {
			_, err := fourier.CalculateInflectionPoint(f, b.opts.Pick)
			return err
		})
	case ".r":
		var r smformat.Response
		if err := layer("smformat.decode", func() (err error) {
			r, err = smformat.ParseResponse(bytes.NewReader(data))
			return err
		}); err != nil {
			return err
		}
		m["smformat.bytes"] += float64(len(data))
		return layer("smformat.encode", func() error { return r.Write(&buf) })
	}
	return nil
}

// replayRecordPlanes puts one record's products through the action cache
// and its raw components through a chunk stream.
func replayRecordPlanes(b *bench, scratch string, ws storage.Workspace, layer func(string, func() error) error, m map[string]float64) error {
	set := b.sets[0]
	var station string
	for name := range set.inputs {
		if st, ok := ingest.StationOf(name); ok && (station == "" || st < station) {
			station = st
		}
	}
	entries, err := os.ReadDir(set.dir)
	if err != nil {
		return err
	}
	var blobs []artifact.Blob
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && !set.inputs[name] && strings.HasPrefix(name, station) {
			data, err := os.ReadFile(filepath.Join(set.dir, name))
			if err != nil {
				return err
			}
			blobs = append(blobs, artifact.Blob{Name: name, Data: data})
		}
	}
	cache, err := artifact.NewActionCache(ws, filepath.Join(scratch, "cache"), 0, false)
	if err != nil {
		return err
	}
	h := artifact.NewHasher("benchmark-replay")
	h.String(b.w.name + "/" + station)
	id := h.Sum()
	if err := layer("artifact.put", func() error { return cache.Put(id, blobs) }); err != nil {
		return err
	}
	restored := filepath.Join(scratch, "restored")
	if err := os.MkdirAll(restored, 0o755); err != nil {
		return err
	}
	if err := layer("artifact.restore", func() error {
		ok, err := cache.Restore(id, func(name string, data []byte) error {
			return ws.WriteFile(filepath.Join(restored, name), data, 0o644)
		})
		if err == nil && !ok {
			err = errors.New("action cache missed a just-stored action")
		}
		return err
	}); err != nil {
		return err
	}
	m["artifact.action_bytes"] = float64(cache.Bytes())

	var comps [][]float64
	for _, c := range seismic.Components {
		raw, err := smformat.ReadV1ComponentFile(filepath.Join(set.dir, smformat.V1ComponentFileName(station, c)))
		if err != nil {
			return err
		}
		comps = append(comps, raw.Accel)
	}
	spill := filepath.Join(scratch, "spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return err
	}
	return layer("stream.transfer", func() error {
		pool := stream.NewPool(0)
		st := stream.New(ws, spill, 0, pool)
		sent := make(chan error, 1)
		go func() {
			var err error
			for ci, data := range comps {
				for off := 0; off < len(data) && err == nil; off += pool.ChunkLen() {
					c := pool.Get(ci)
					c.Data = append(c.Data, data[off:min(off+pool.ChunkLen(), len(data))]...)
					err = st.Send(c)
				}
			}
			st.Close(err)
			sent <- err
		}()
		var n int
		for {
			c, err := st.Recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				<-sent
				return err
			}
			n += len(c.Data)
			m["stream.chunks"]++
			c.Release()
		}
		if err := <-sent; err != nil {
			return err
		}
		if want := len(comps[0]) + len(comps[1]) + len(comps[2]); n != want {
			return fmt.Errorf("stream delivered %d samples, sent %d", n, want)
		}
		return nil
	})
}

// tracedMetrics assembles the per-layer metrics: medians over the traced
// iterations, the tracing overhead against the untraced iterations, and the
// layer replay, run here on the products the last iteration left in place.
func tracedMetrics(b *bench, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	for name, xs := range tr.s {
		m[name] = median(xs)
	}
	m["obs.overhead_frac"] = median(tr.s["iter_s"])/median(b.s["iter_s"]) - 1
	rep, err := replay(b, tr.o, int(m["dataflow.nodes"]))
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	for k, v := range rep {
		m[k] = v
	}
	return m, nil
}

// writeLayers records the traced pass's values in layers.json.
func writeLayers(path string, w *workload, cfg config, layers map[string]float64, extras map[string]metric) error {
	data, err := json.MarshalIndent(map[string]any{
		"workload": w.name,
		"seed":     cfg.seed,
		"layers":   layers,
		"extras":   extras,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTimeShares prints where an iteration's pipeline time goes: each
// process group's span time and the run time no span covers, as shares of
// their sum.
func printTimeShares(w io.Writer, res *result) {
	names := make([]string, 0, len(groupOrder)+1)
	for _, g := range groupOrder {
		names = append(names, "pipeline."+g+"_s")
	}
	names = append(names, "pipeline.unattributed_s")
	var total float64
	for _, n := range names {
		total += res.Metrics[n].Value
	}
	fmt.Fprintf(w, "  where the time goes (span seconds per iteration):\n")
	for _, n := range names {
		v := res.Metrics[n].Value
		fmt.Fprintf(w, "    %-26s %10.4f s %6.1f%%\n", strings.TrimSuffix(strings.TrimPrefix(n, "pipeline."), "_s"), v, 100*v/total)
	}
}
