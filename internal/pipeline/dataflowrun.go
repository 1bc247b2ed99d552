package pipeline

import (
	"bufio"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"accelproc/internal/dataflow"
	"accelproc/internal/dsp"
	"accelproc/internal/fourier"
	"accelproc/internal/obs"
	"accelproc/internal/parallel"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
	"accelproc/internal/storage"
	"accelproc/internal/stream"
)

// This file implements the Pipelined variant: instead of the 11-stage
// schedule with a barrier after every stage, the run is compiled into one
// record-level task DAG and handed to the internal/dataflow executor.  The
// graph is derived from the declared process artifacts (DeriveArtifactEdges),
// never hand-written, so it cannot drift from the artifact table.
//
// Node granularity: a per-record process (PerRecordProcess) contributes one
// node per station, so station A's Fourier transform can start the moment
// A's default filter lands, while station B is still being filtered — the
// inter-stage barrier the staged schedule imposes is gone.  A per-record
// process that also writes an event-global artifact (the max-values metadata
// of #4/#13, the filter-params file of #10) gets an extra join node that
// merges the per-record fragments and performs the single global write;
// downstream readers of the global artifact depend on the join, downstream
// readers of the per-record files depend only on their own record's node.
//
// Edge mapping, per derived ArtifactEdge d→p:
//   - record-scoped artifact (both ends per-record): d[r] → p[r];
//   - global artifact read by p (RAW): producer → every p[r];
//   - global artifact written by p (WAR/WAW): producer → join(p);
// where the producer side is the global node of d, the join of d when d is a
// per-record writer of the artifact, or all d[r] when d merely read it (WAR).
//
// Processes #0 and #1 run before the graph is built — #1 discovers the
// record set the graph is shaped by — exactly as stage I of the staged
// schedule, so their timings and spans are reported identically.
//
// Scheduling: critical-path-first with record size (NPTS, peeked from the V1
// header) as the weight, so big records — the stragglers of the staged
// schedule — enter the pool first.  Retry, quarantine, and chaos injection
// work unchanged: the temp-folder nodes run the same per-record jobs as the
// staged schedule (tempfolder.go), steps back to back, and a quarantined
// record's downstream nodes complete as no-ops instead of poisoning the run.

// dfNodeMeta locates a node in the process/stage taxonomy for timing
// attribution and metrics.
type dfNodeMeta struct {
	pid     ProcessID
	stage   StageID
	station string
}

// dfBuild accumulates the graph, the per-node bodies' side-channel state
// (max-values fragments, picked corners), and the per-node measurements.
type dfBuild struct {
	s        *state
	g        *dataflow.Graph
	stations []string
	weights  []float64
	exe      string

	durs []time.Duration // per-node measured cost, written by node index
	meta []dfNodeMeta

	global map[ProcessID]dataflow.NodeID
	perRec map[ProcessID][]dataflow.NodeID
	join   map[ProcessID]dataflow.NodeID

	fragsDef []smformat.MaxValues
	fragsCor []smformat.MaxValues
	picks    [][3]dsp.BandPassSpec
	picked   []bool

	// Streaming execution plane (Options.Streaming; see streamrun.go): the
	// run's shared chunk pool, the gather pool of the blocking consumers,
	// one stream per (producer process, record) stream edge, and the
	// per-record scratch dirs holding stream spills.
	pool       *stream.Pool
	gatherPool *fourier.GatherPool
	streams    map[ProcessID][]*stream.Stream
	spillDirs  []string
}

// streaming reports whether this build runs the streaming execution plane.
func (b *dfBuild) streaming() bool { return b.streams != nil }

// runPipelined executes the dataflow variant: stage I as in the staged
// schedule, then everything else as one barrier-free task graph.
func (s *state) runPipelined() error {
	b, err := s.preparePipelined()
	if err != nil {
		return err
	}
	if s.simulated() {
		return s.executeDataflowSim(b)
	}
	return s.executeDataflow(b)
}

// preparePipelined performs the Pipelined variant's pre-graph prologue —
// stage I, station discovery, the shared filter-executable image — and
// compiles the record-level task graph.  Split from runPipelined so the
// fleet scheduler can run it as an event's admission-time Build phase on a
// shared pool worker.
func (s *state) preparePipelined() (*dfBuild, error) {
	if err := s.runStep(planStep{stage: StageI, strat: StratTask, procs: Stages[StageI-1].Processes}); err != nil {
		return nil, err
	}
	stations, err := s.stations()
	if err != nil {
		return nil, err
	}
	exe := ""
	if !s.opts.NoTempFolders {
		// Installed once, up front: the staged schedule creates the image
		// lazily inside the first temp-folder stage, but concurrent dataflow
		// nodes must not race to create it.
		if exe, err = s.ensureExeImage(); err != nil {
			return nil, err
		}
	}
	return s.buildDataflow(stations, exe)
}

// executeDataflow runs the graph on real goroutines with the run's worker
// budget, then reports the scheduler metrics.
func (s *state) executeDataflow(b *dfBuild) error {
	defer b.teardownStreams()
	var mon dataflow.Monitor
	if o := s.opts.Observer; o != nil {
		mon = obs.NewWorkerMonitor(o, "dataflow")
	}
	stats, err := b.g.Execute(parallel.Workers(s.opts.Workers), mon)
	b.foldTimings()
	if err != nil {
		return err
	}
	b.reportMetrics(stats)
	return nil
}

// executeDataflowSim runs the graph on the simulated platform: one worker
// dispatches the bodies serially in priority order while the CPU clock
// measures each node, then the virtual clock is charged the list-scheduling
// makespan of the measured graph on the simulated processors.
func (s *state) executeDataflowSim(b *dfBuild) error {
	defer b.teardownStreams()
	_, err := b.g.Execute(1, nil)
	b.foldTimings()
	if err != nil {
		return err
	}
	var serial time.Duration
	for _, d := range b.durs {
		serial += d
	}
	s.virt += b.g.SimMakespan(b.durs, s.opts.SimProcessors) - serial
	return nil
}

// foldTimings attributes every node's measured cost to its process and
// stage.  With no barriers there is no joint stage wall time; a stage's
// entry is the summed cost of its nodes, which keeps per-stage comparisons
// against the staged variants meaningful (work moved, not renamed).
func (b *dfBuild) foldTimings() {
	for i, m := range b.meta {
		b.s.tim.Process[m.pid] += b.durs[i]
		b.s.tim.Stage[m.stage] += b.durs[i]
	}
}

// reportMetrics feeds the scheduler's post-run gauges: the ready-queue wait
// distribution, and the total per-stage tail wait a barrier schedule would
// have added (for every node, the gap between its finish and its stage's
// last finish — exactly the idle time the dataflow executor reclaims).
func (b *dfBuild) reportMetrics(stats []dataflow.NodeStat) {
	o := b.s.opts.Observer
	if o == nil {
		return
	}
	h := o.Histogram("dataflow_ready_queue_wait_seconds", nil)
	stageEnd := map[StageID]time.Duration{}
	for _, st := range stats {
		if st.Skipped {
			continue
		}
		h.Observe(st.Wait().Seconds())
		if stage := b.meta[st.ID].stage; st.End > stageEnd[stage] {
			stageEnd[stage] = st.End
		}
	}
	var eliminated time.Duration
	for _, st := range stats {
		if !st.Skipped {
			eliminated += stageEnd[b.meta[st.ID].stage] - st.End
		}
	}
	o.Gauge("dataflow_barrier_wait_eliminated_seconds").Set(eliminated.Seconds())
}

// buildDataflow compiles the derived artifact edges into the record-level
// task graph for the given surviving stations.
func (s *state) buildDataflow(stations []string, exe string) (*dfBuild, error) {
	b := &dfBuild{
		s: s, g: dataflow.New(), stations: stations, exe: exe,
		weights:  s.recordWeights(stations),
		global:   map[ProcessID]dataflow.NodeID{},
		perRec:   map[ProcessID][]dataflow.NodeID{},
		join:     map[ProcessID]dataflow.NodeID{},
		fragsDef: make([]smformat.MaxValues, len(stations)),
		fragsCor: make([]smformat.MaxValues, len(stations)),
		picks:    make([][3]dsp.BandPassSpec, len(stations)),
		picked:   make([]bool, len(stations)),
	}
	if s.opts.Streaming {
		if err := b.setupStreams(); err != nil {
			return nil, err
		}
	}
	incoming := map[ProcessID][]ArtifactEdge{}
	for _, e := range DeriveArtifactEdges() {
		if e.From <= PGatherInputs {
			continue // stage-I producers finish before the graph starts
		}
		incoming[e.To] = append(incoming[e.To], e)
	}
	for _, p := range Processes {
		if p.Redundant || p.ID <= PGatherInputs {
			continue
		}
		b.addProcess(p.ID, incoming[p.ID])
	}
	return b, nil
}

// addProcess adds the node (or per-record nodes plus optional join) of one
// process, wiring the derived edges per the mapping in the file comment.
// Processes is iterated in chain order, so every producer node exists.
func (b *dfBuild) addProcess(pid ProcessID, in []ArtifactEdge) {
	if !PerRecordProcess(pid) {
		var deps []dataflow.NodeID
		for _, e := range in {
			deps = append(deps, b.producersOf(e)...)
		}
		b.global[pid] = b.add(pid, "", func() error { return b.s.procBody(nil, pid, StratSequential) }, deps, nil)
		return
	}
	var recEdges, readEdges, writeEdges []ArtifactEdge
	for _, e := range in {
		switch {
		case RecordScoped(e.Artifact):
			recEdges = append(recEdges, e)
		case e.Hazard == HazardRAW:
			readEdges = append(readEdges, e)
		default:
			writeEdges = append(writeEdges, e)
		}
	}
	var shared []dataflow.NodeID
	for _, e := range readEdges {
		shared = append(shared, b.producersOf(e)...)
	}
	// Under streaming, the record-scoped true dependency on this consumer's
	// stream producer becomes a stream edge: the consumer node is released at
	// the producer's *dispatch*, so the pair runs concurrently with chunks
	// flowing between them.  Every other record-scoped edge (WAR hazards, and
	// artifact reads with no stream) stays a completion edge.
	streamFrom, hasStream := streamProducerOf[pid]
	ids := make([]dataflow.NodeID, len(b.stations))
	for i, st := range b.stations {
		deps := append([]dataflow.NodeID(nil), shared...)
		var sdeps []dataflow.NodeID
		for _, e := range recEdges {
			if b.streaming() && hasStream && e.Hazard == HazardRAW && e.From == streamFrom {
				sdeps = append(sdeps, b.perRec[e.From][i])
				continue
			}
			deps = append(deps, b.perRec[e.From][i])
		}
		ids[i] = b.add(pid, st, b.recordBody(pid, i, st), deps, sdeps)
	}
	b.perRec[pid] = ids
	if !writesGlobal(pid) {
		return
	}
	deps := append([]dataflow.NodeID(nil), ids...)
	for _, e := range writeEdges {
		deps = append(deps, b.producersOf(e)...)
	}
	b.join[pid] = b.add(pid, "", b.joinBody(pid), deps, nil)
}

// producersOf resolves the producer side of one global-artifact edge to
// concrete nodes.
func (b *dfBuild) producersOf(e ArtifactEdge) []dataflow.NodeID {
	if !PerRecordProcess(e.From) {
		return []dataflow.NodeID{b.global[e.From]}
	}
	if e.Hazard == HazardWAR {
		// Anti-dependency: wait for every per-record reader of the artifact
		// about to be overwritten.
		return b.perRec[e.From]
	}
	// True or output dependency on a per-record writer: its join node owns
	// the merged global artifact.
	return []dataflow.NodeID{b.join[e.From]}
}

// writesGlobal reports whether a per-record process also writes an
// event-global artifact and therefore needs a join node.
func writesGlobal(pid ProcessID) bool {
	for _, a := range Processes[pid].Outputs {
		if !RecordScoped(a) {
			return true
		}
	}
	return false
}

// add registers one node: the body is wrapped with the quarantine skip, the
// cancellation check, a task span under the run span, cost measurement, and
// the fail-fast cancellation that parFor bodies get on the staged path.
// sdeps names stream-edge producers (streaming runs only): the node is added
// with AddStream so it is released at their dispatch instead of completion.
func (b *dfBuild) add(pid ProcessID, station string, inner func() error, deps, sdeps []dataflow.NodeID) dataflow.NodeID {
	s := b.s
	id := dataflow.NodeID(b.g.Len())
	name := Processes[pid].Name
	label := name
	weight := 0.0
	if station != "" {
		label = name + ":" + station
		weight = b.weights[b.stationIndex(station)]
	} else if PerRecordProcess(pid) {
		label = name + ":join"
	}
	alpha := s.opts.ContentionIO
	if Processes[pid].Cost == CostHeavyFLOPS {
		alpha = s.opts.ContentionCPU
	}
	b.durs = append(b.durs, 0)
	b.meta = append(b.meta, dfNodeMeta{pid: pid, stage: StageOf(pid), station: station})
	run := func() error {
		if station != "" && s.isQuarantined(station) {
			return nil
		}
		if err := s.cancelled(); err != nil {
			return err
		}
		attrs := []obs.Attr{obs.Int("process", int64(pid)), obs.String("process_name", name)}
		if station != "" {
			attrs = append(attrs, obs.String("record", station))
		}
		start := s.now()
		// Resume skip rule: a node the replayed journal validated as done
		// (outputs present, side-channel payload journaled) restores its
		// side-channel state and skips — checked before the action cache,
		// because the journal already proved the outputs are in place.
		if station != "" && s.resumeDone != nil {
			if n, ok := s.resumeDone[nodeKey{pid: pid, st: station}]; ok &&
				b.restoreResumedSide(n, b.stationIndex(station)) {
				d := s.now() - start
				b.durs[id] = d
				s.nodesSkipped.Add(1)
				s.nodesSkippedCtr.Add(1)
				sp := s.runSpan.Child("node:"+label, obs.KindTask,
					append(attrs, obs.String("resume", "skip"))...)
				sp.EndCharged(d)
				return nil
			}
		}
		// Action-cache skip rule: a per-record node whose digest of (process,
		// inputs, params) is cached restores its recorded outputs instead of
		// executing (see actioncache.go).
		aid, cacheable := b.nodeAction(pid, station)
		if cacheable && b.restoreNode(aid, pid, b.stationIndex(station), station) {
			d := s.now() - start
			b.durs[id] = d
			b.journalNodeDone(pid, station, b.stationIndex(station))
			sp := s.runSpan.Child("node:"+label, obs.KindTask,
				append(attrs, obs.String("action_cache", "hit"))...)
			sp.EndCharged(d)
			return nil
		}
		sp := s.runSpan.Child("node:"+label, obs.KindTask, attrs...)
		err := inner()
		d := s.now() - start
		b.durs[id] = d
		if err != nil {
			sp.EndCharged(d, obs.String("error", err.Error()))
			if classify(err) != ErrKindCanceled {
				s.fail(err)
			}
			return fmt.Errorf("pipeline: process #%d (%s): %w", pid, name, err)
		}
		if station != "" {
			s.recNodesExec.Add(1)
			// Re-check quarantine: graceful degradation may have condemned the
			// record *during* the body, in which case its outputs are partial
			// or gone and must not be recorded as this digest's results.
			if !s.isQuarantined(station) {
				if cacheable {
					b.storeNode(aid, pid, b.stationIndex(station), station)
				}
				// Journal the node *after* its outputs landed: the record is
				// the durability acknowledgment the resume validation trusts.
				b.journalNodeDone(pid, station, b.stationIndex(station))
			}
		}
		sp.EndCharged(d)
		return nil
	}
	// A streamed producer must close its out-stream no matter how the node
	// ends — an error, a quarantine skip or a resume skip leaves the consumer
	// blocked on Header or Recv otherwise.  Close is first-reason-wins: a
	// body that streamed has already closed the stream cleanly, and every
	// skip degrades the consumer to its durable-artifact fallback.
	if out := b.outStream(pid, station); out != nil {
		body := run
		run = func() error {
			err := body()
			if err != nil {
				out.Close(err)
			} else {
				out.Close(stream.ErrFallback)
			}
			return err
		}
	}
	spec := dataflow.Spec{Label: label, Weight: weight, Alpha: alpha, Run: run}
	if len(sdeps) > 0 {
		return b.g.AddStream(spec, dedupNodes(sdeps), dedupNodes(deps)...)
	}
	return b.g.Add(spec, dedupNodes(deps)...)
}

func (b *dfBuild) stationIndex(st string) int {
	for i, have := range b.stations {
		if have == st {
			return i
		}
	}
	return 0
}

// dedupNodes sorts and deduplicates a dependency list in place.
func dedupNodes(deps []dataflow.NodeID) []dataflow.NodeID {
	if len(deps) < 2 {
		return deps
	}
	sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
	out := deps[:1]
	for _, d := range deps[1:] {
		if d != out[len(out)-1] {
			out = append(out, d)
		}
	}
	return out
}

// recordBody returns the body of one process's node for station index i.
func (b *dfBuild) recordBody(pid ProcessID, i int, st string) func() error {
	s := b.s
	switch pid {
	case PSeparateComponents:
		if b.streaming() {
			return func() error { return b.streamSeparateStation(i, st) }
		}
		return func() error { return s.separateStation(st) }
	case PDefaultFilter:
		return b.filterRecordBody(PDefaultFilter, b.fragsDef, i, st)
	case PFourier:
		return func() error {
			switch {
			case b.streaming():
				return b.streamFourierRecord(i, st)
			case s.opts.NoTempFolders:
				return s.fourierRecord(s.dir, st)
			}
			return s.runTempJob(s.newTempJob(PFourier, i, st, b.exe))
		}
	case PPlotFourier:
		return func() error { return s.plotFourierStation(st) }
	case PPickCorners:
		return func() error {
			var specs [3]dsp.BandPassSpec
			for ci, comp := range seismic.Components {
				spec, err := s.pickSignalSpec(st, comp)
				if err != nil {
					return err
				}
				specs[ci] = spec
			}
			b.picks[i] = specs
			b.picked[i] = true
			return nil
		}
	case PCorrectedFilter:
		return b.filterRecordBody(PCorrectedFilter, b.fragsCor, i, st)
	case PPlotAccel:
		return func() error { return s.plotAccelStation(st) }
	case PResponseSpectrum:
		return func() error {
			if b.streaming() {
				return b.streamResponseRecord(i, st)
			}
			for _, comp := range seismic.Components {
				if err := s.responseSignal(smformat.V2FileName(st, comp)); err != nil {
					return err
				}
			}
			return nil
		}
	case PPlotResponse:
		return func() error { return s.plotResponseStation(st) }
	case PGenerateGEM:
		return func() error {
			for _, comp := range seismic.Components {
				key := smformat.SignalKey{Station: st, Component: comp}
				if err := s.gemJob(key, false); err != nil {
					return err
				}
				if err := s.gemJob(key, true); err != nil {
					return err
				}
			}
			return nil
		}
	}
	panic(fmt.Sprintf("pipeline: no dataflow body for per-record process #%d", pid))
}

// filterRecordBody builds the per-record body of processes #4 and #13,
// storing the record's max-values fragment for the join node to merge (a
// quarantined record contributes none).
func (b *dfBuild) filterRecordBody(pid ProcessID, frags []smformat.MaxValues, i int, st string) func() error {
	s := b.s
	return func() error {
		var frag smformat.MaxValues
		var err error
		switch {
		case b.streaming():
			frag, err = b.streamFilterRecord(pid, i, st)
		case s.opts.NoTempFolders:
			frag, err = s.filterRecord(s.dir, st)
		default:
			j := s.newTempJob(pid, i, st, b.exe)
			err = s.runTempJob(j)
			frag = j.peaks
		}
		if err != nil || s.isQuarantined(st) {
			return err
		}
		frags[i] = frag
		return nil
	}
}

// joinBody returns the merge body of a per-record process's join node.
func (b *dfBuild) joinBody(pid ProcessID) func() error {
	s := b.s
	switch pid {
	case PDefaultFilter:
		return func() error { return s.writeMergedMaxValues(b.fragsDef) }
	case PCorrectedFilter:
		return func() error { return s.writeMergedMaxValues(b.fragsCor) }
	case PPickCorners:
		return func() error {
			params, err := s.readFilterParams(s.path(smformat.FilterParamsFile))
			if err != nil {
				return err
			}
			for i, st := range b.stations {
				if !b.picked[i] {
					continue // quarantined before its pick node ran
				}
				for ci, comp := range seismic.Components {
					params.PerSignal[smformat.SignalKey{Station: st, Component: comp}] = b.picks[i][ci]
				}
			}
			return s.writeFilterParams(s.path(smformat.FilterParamsFile), params)
		}
	}
	panic(fmt.Sprintf("pipeline: no dataflow join body for process #%d", pid))
}

// recordWeights estimates each record's size so the scheduler starts the
// heaviest records first.  Native V1 inputs get an NPTS header peek; foreign
// ingest formats fall back to file size over a nominal bytes-per-sample —
// only the relative ordering matters.  Best-effort in every branch: any
// read or parse problem yields weight 1 and is surfaced later by the decode
// node that actually consumes the file.
func (s *state) recordWeights(stations []string) []float64 {
	inputs, err := s.inputsByStation()
	w := make([]float64, len(stations))
	for i, st := range stations {
		w[i] = 1
		if err != nil {
			continue
		}
		name, ok := inputs[st]
		if !ok {
			continue
		}
		w[i] = inputWeight(s.ws, s.path(name))
	}
	return w
}

// inputWeight is recordWeights' per-file heuristic: NPTS for native V1,
// size/24 (three ~8-byte samples per time step) for everything else.
func inputWeight(ws storage.Workspace, p string) float64 {
	if strings.EqualFold(filepath.Ext(p), ".v1") {
		return float64(nptsOf(ws, p))
	}
	if fi, err := ws.Stat(p); err == nil && fi.Size() > 24 {
		return float64(fi.Size()) / 24
	}
	return 1
}

// nptsOf scans the V1 header (NPTS is on the fourth line) for the sample
// count, returning 1 when it cannot be determined.
func nptsOf(ws storage.Workspace, path string) int {
	f, err := ws.Open(path)
	if err != nil {
		return 1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 4096), 1024*1024)
	for i := 0; i < 4 && sc.Scan(); i++ {
		if rest, ok := strings.CutPrefix(sc.Text(), "NPTS:"); ok {
			if v, err := strconv.Atoi(strings.TrimSpace(rest)); err == nil && v > 0 {
				return v
			}
			return 1
		}
	}
	return 1
}
