package pipeline

import (
	"bufio"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"accelproc/internal/artifact"
	"accelproc/internal/dataflow"
	"accelproc/internal/obs"
	"accelproc/internal/parallel"
	"accelproc/internal/simsched"
	"accelproc/internal/storage"
	"accelproc/internal/stream"
)

// This file implements the Pipelined variant: instead of the 11-stage
// schedule with a barrier after every stage, the run is compiled into one
// record-level task DAG and handed to the internal/dataflow executor.  The
// nodes run the bodies the staged plans run (steps.go's phases, built once
// per process over all stations); the edges are derived from the declared
// process artifacts (DeriveArtifactEdges), never hand-written, so they
// cannot drift from the artifact table.
//
// Node granularity: a per-record process (PerRecordProcess) contributes one
// node per station running that station's units in phase order, so station
// A's Fourier transform can start the moment A's default filter lands,
// while station B is still being filtered — the inter-stage barrier the
// staged schedule imposes is gone.  A temp-folder job is one record node:
// its four protocol steps back to back.  The process's event-global rounds
// become nodes of their own: a pre node for those before the units (the
// filter-params read of the direct filters), a join node for those after
// them (the max-values merge of #4/#13, the filter-params write of #10).
// Downstream readers of the global artifact depend on the join, downstream
// readers of the per-record files depend only on their own record's node.
//
// Edge mapping, per derived ArtifactEdge d→p:
//   - record-scoped artifact (both ends per-record): d[r] → p[r];
//   - global artifact read by p (RAW): producer → pre(p) if p has one,
//     else every p[r];
//   - global artifact written by p (WAR/WAW): producer → join(p);
// where the producer side is the global node of d, the join of d when d is a
// per-record writer of the artifact, or pre(d) and all d[r] when d merely
// read it (WAR).
//
// Processes #0 and #1 run before the graph is built — #1 discovers the
// record set the graph is shaped by — exactly as stage I of the staged
// schedule, so their timings and spans are reported identically.
//
// Scheduling: critical-path-first with record size (NPTS, peeked from the V1
// header) as the weight, so big records — the stragglers of the staged
// schedule — enter the pool first.  Retry, quarantine, and chaos injection
// work unchanged, and a quarantined record's downstream nodes complete as
// no-ops instead of poisoning the run.

// dfNode is the data the Pipelined compile attaches to each of its nodes:
// every one gets a node: span under the run span, and a per-(process,
// record) node, the station's i-th, the record rules of openNode and
// closeNode.  aid and cacheable are its action digest, taken as it runs.
type dfNode struct {
	station   string // "" for a global, pre or join node
	i         int
	aid       artifact.ActionID
	cacheable bool
}

// dfProc is one process's nodes in the Pipelined graph: the ones that read
// its event-global inputs (its global node, or its pre and record nodes),
// the one that writes its event-global outputs (its global or join node),
// and its record nodes.
type dfProc struct {
	readers []dataflow.NodeID
	writer  dataflow.NodeID
	recs    []dataflow.NodeID
}

// runPipelined executes the dataflow variant: stage I as in the staged
// schedule, then everything else as one barrier-free task graph.
func (s *state) runPipelined() error {
	c, err := s.preparePipelined()
	if err != nil {
		return err
	}
	return s.executeDataflow(c)
}

// preparePipelined performs the Pipelined variant's pre-graph prologue —
// stage I, station discovery — and compiles the record-level task graph.
// Split from runPipelined so the fleet scheduler can run it as an event's
// admission-time Build phase on a shared pool worker.
func (s *state) preparePipelined() (*stepGraph, error) {
	if _, err := s.runSteps([]planStep{stageIStep}, nil, s.now()); err != nil {
		return nil, err
	}
	stations, err := s.stations()
	if err != nil {
		return nil, err
	}
	return s.buildDataflow(stations)
}

// executeDataflow runs the graph and folds its node costs into the
// timings.  On real goroutines it uses the run's worker budget and reports
// the scheduler metrics; on the simulated platform one worker dispatches
// the bodies serially in priority order while the CPU clock measures each
// node, then the virtual clock is charged the graph's makespan on the
// simulated processors: a one-job dataflow.Simulate with no build cost.
func (s *state) executeDataflow(c *stepGraph) error {
	workers := parallel.Workers(s.opts.Workers)
	var mon dataflow.Monitor
	if s.simulated() {
		workers = 1
	} else if o := s.opts.Observer; o != nil {
		mon = obs.NewWorkerMonitor(o, "dataflow")
	}
	stats, err := c.g.Execute(workers, mon)
	c.foldTimings()
	c.teardown(err)
	if err != nil {
		return err
	}
	if !s.simulated() {
		c.reportMetrics(stats)
		return nil
	}
	sim := dataflow.Simulate([]dataflow.SimJob{{Graph: c.g, Durs: c.durs}}, s.opts.SimProcessors, 1, dataflow.Throughput)
	s.virt += sim[0].Done - simsched.Sum(c.durs)
	return nil
}

// teardown releases the graph's streams and, after a failed run, the
// scratch folders its temp-folder jobs left.
func (c *stepGraph) teardown(err error) {
	c.teardownStreams()
	if err != nil {
		c.s.removeScratchDirs(c.scratch)
	}
}

// foldTimings attributes every node's measured cost to its process and
// stage.  With no barriers there is no joint stage wall time; a stage's
// entry is the summed cost of its nodes, which keeps per-stage comparisons
// against the staged variants meaningful (work moved, not renamed).
func (c *stepGraph) foldTimings() {
	for i, pid := range c.pids {
		c.s.tim.Process[pid] += c.durs[i]
		c.s.tim.Stage[StageOf(pid)] += c.durs[i]
	}
}

// reportMetrics feeds the scheduler's post-run gauges: the ready-queue wait
// distribution, and the total per-stage tail wait a barrier schedule would
// have added (for every node, the gap between its finish and its stage's
// last finish — exactly the idle time the dataflow executor reclaims).
func (c *stepGraph) reportMetrics(stats []dataflow.NodeStat) {
	o := c.s.opts.Observer
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
		if stage := StageOf(c.pids[st.ID]); st.End > stageEnd[stage] {
			stageEnd[stage] = st.End
		}
	}
	var eliminated time.Duration
	for _, st := range stats {
		if !st.Skipped {
			eliminated += stageEnd[StageOf(c.pids[st.ID])] - st.End
		}
	}
	o.Gauge("dataflow_barrier_wait_eliminated_seconds").Set(eliminated.Seconds())
}

// buildDataflow compiles the derived artifact edges into the record-level
// task graph for the given surviving stations.
func (s *state) buildDataflow(stations []string) (*stepGraph, error) {
	c := s.newStepGraph(stations)
	c.weights = s.recordWeights(stations)
	c.procs = map[ProcessID]*dfProc{}
	if !s.opts.NoTempFolders {
		// Installed once, up front, as for a staged plan: concurrent record
		// nodes must not race to create it.
		exe, err := s.ensureExeImage()
		if err != nil {
			return nil, err
		}
		c.exe = exe
	}
	if s.opts.Streaming {
		if err := c.setupStreams(); err != nil {
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
		c.addProcess(p.ID, incoming[p.ID])
	}
	return c, nil
}

// addProcess adds one process's nodes, compiled from its phases run with
// temp folders (unless Options.NoTempFolders), wiring the derived edges per
// the mapping in the file comment.  Processes is iterated in chain order,
// so every producer node exists.
func (c *stepGraph) addProcess(pid ProcessID, in []ArtifactEdge) {
	name := Processes[pid].Name
	phases := c.phases(pid, StratTempFolder)
	var recEdges []ArtifactEdge
	var reads, writes []dataflow.NodeID
	for _, e := range in {
		switch {
		case RecordScoped(e.Artifact):
			recEdges = append(recEdges, e)
		case e.Hazard == HazardRAW:
			reads = append(reads, c.producersOf(e)...)
		default:
			writes = append(writes, c.producersOf(e)...)
		}
	}
	p := &dfProc{}
	c.procs[pid] = p
	if !PerRecordProcess(pid) {
		p.writer = c.addNode(node{pid: pid, label: name, units: phases[0].units, df: &dfNode{}}, append(reads, writes...), nil)
		p.readers = []dataflow.NodeID{p.writer}
		return
	}
	first, last := 0, len(phases)
	for first < last && phases[first].global() {
		first++
	}
	for last > first && phases[last-1].global() {
		last--
	}
	if first > 0 {
		reads = []dataflow.NodeID{c.addNode(node{pid: pid, label: name + ":pre", units: unitsOf(phases[:first]), df: &dfNode{}}, reads, nil)}
		p.readers = reads
	}
	index := make(map[string]int, len(c.stations))
	for i, st := range c.stations {
		index[st] = i
	}
	units := make([][]unit, len(c.stations))
	for _, u := range unitsOf(phases[first:last]) {
		units[index[u.station]] = append(units[index[u.station]], u)
	}
	// Under streaming, the record-scoped true dependency on this consumer's
	// stream producer becomes a stream edge: the consumer node is released at
	// the producer's *dispatch*, so the pair runs concurrently with chunks
	// flowing between them.  Every other record-scoped edge (WAR hazards, and
	// artifact reads with no stream) stays a completion edge.
	streamFrom, hasStream := streamProducerOf[pid]
	for i, st := range c.stations {
		deps := append([]dataflow.NodeID(nil), reads...)
		var sdeps []dataflow.NodeID
		for _, e := range recEdges {
			if c.streaming() && hasStream && e.Hazard == HazardRAW && e.From == streamFrom {
				sdeps = append(sdeps, c.procs[e.From].recs[i])
				continue
			}
			deps = append(deps, c.procs[e.From].recs[i])
		}
		p.recs = append(p.recs, c.addNode(node{pid: pid, label: name + ":" + st, units: units[i], df: &dfNode{station: st, i: i}}, deps, sdeps))
	}
	p.readers = append(p.readers, p.recs...)
	if last < len(phases) {
		p.writer = c.addNode(node{pid: pid, label: name + ":join", units: unitsOf(phases[last:]), df: &dfNode{}},
			append(append([]dataflow.NodeID(nil), p.recs...), writes...), nil)
	}
}

// unitsOf lists the units of phases in order.
func unitsOf(phases []phase) []unit {
	var units []unit
	for _, ph := range phases {
		units = append(units, ph.units...)
	}
	return units
}

// producersOf resolves the producer side of one global-artifact edge to
// concrete nodes: for an anti-dependency every node of the producer that
// read the artifact about to be overwritten, for a true or output
// dependency the node that wrote it.
func (c *stepGraph) producersOf(e ArtifactEdge) []dataflow.NodeID {
	p := c.procs[e.From]
	if e.Hazard == HazardWAR {
		return p.readers
	}
	return []dataflow.NodeID{p.writer}
}

// openNode opens a Pipelined node's span and applies a per-(process,
// record) node's skip rules.  A node the replayed journal validated as done
// (outputs present, side payload journaled) restores its side payload and
// skips — checked before the action cache, because the journal already
// proved the outputs are in place.  A node whose digest of (process,
// inputs, params) is cached restores its recorded outputs instead of
// executing (see actioncache.go).  done reports a skip; a staged node (no
// df) gets neither span nor rules.
func (c *stepGraph) openNode(id dataflow.NodeID, n node, start time.Duration) (sp *obs.Span, done bool) {
	df := n.df
	if df == nil {
		return nil, false
	}
	s := c.s
	attrs := []obs.Attr{obs.Int("process", int64(n.pid)), obs.String("process_name", Processes[n.pid].Name)}
	if df.station == "" {
		return s.runSpan.Child("node:"+n.label, obs.KindTask, attrs...), false
	}
	attrs = append(attrs, obs.String("record", df.station))
	if jn, ok := s.resumeDone[nodeKey{pid: n.pid, st: df.station}]; ok && c.resumeSide(n.pid, df.i, jn.side) {
		d := s.now() - start
		c.durs[id] = d
		s.nodesSkipped.Add(1)
		s.nodesSkippedCtr.Add(1)
		s.runSpan.Child("node:"+n.label, obs.KindTask, append(attrs, obs.String("resume", "skip"))...).EndCharged(d)
		return nil, true
	}
	df.aid, df.cacheable = c.nodeAction(n.pid, df.station)
	if df.cacheable && c.restoreNode(df.aid, n.pid, df.i) {
		d := s.now() - start
		c.durs[id] = d
		sp := s.runSpan.Child("node:"+n.label, obs.KindTask, append(attrs, obs.String("action_cache", "hit"))...)
		c.journalNodeDone(sp, n.pid, df)
		sp.EndCharged(d)
		return nil, true
	}
	return s.runSpan.Child("node:"+n.label, obs.KindTask, attrs...), false
}

// closeNode finishes a per-(process, record) node that ran its units: it
// counts the node and, unless graceful degradation condemned the record
// during the units (its outputs are partial or gone), stores the outputs
// under the node's digest and journals the node.  The Put and the journal
// append run after the node's cost was taken, so each opens a task span of
// its own under the node's span.
func (c *stepGraph) closeNode(sp *obs.Span, n node) {
	df := n.df
	if df == nil || df.station == "" {
		return
	}
	c.s.recNodesExec.Add(1)
	if c.s.isQuarantined(df.station) {
		return
	}
	if df.cacheable {
		c.storeNode(sp, df.aid, n.pid, df)
	}
	// Journal the node *after* its outputs landed: the record is the
	// durability acknowledgment the resume validation trusts.
	c.journalNodeDone(sp, n.pid, df)
}

// closingStream wraps the body of a streamed producer's record node so it
// closes its out-stream no matter how the node ends — an error, a
// quarantine skip or a resume skip leaves the consumer blocked on Header or
// Recv otherwise.  Close is first-reason-wins: a body that streamed has
// already closed the stream cleanly, and every skip degrades the consumer
// to its durable-artifact fallback.
func (c *stepGraph) closingStream(pid ProcessID, df *dfNode, run func() error) func() error {
	out := c.outStream(pid, df)
	if out == nil {
		return run
	}
	return func() error {
		err := run()
		if err != nil {
			out.Close(err)
		} else {
			out.Close(stream.ErrFallback)
		}
		return err
	}
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
