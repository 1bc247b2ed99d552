package pipeline

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"accelproc/internal/dataflow"
	"accelproc/internal/dsp"
	"accelproc/internal/fourier"
	"accelproc/internal/obs"
	"accelproc/internal/parallel"
	"accelproc/internal/seismic"
	"accelproc/internal/simsched"
	"accelproc/internal/smformat"
	"accelproc/internal/stream"
)

// This file compiles plans onto the dataflow executor, the one engine every
// variant runs on.  Every compile draws on one body table, phases: a
// process's rounds of units, each unit a station's, a signal's or a file's
// work, or an event-global body.  The staged plans lay the rounds out as
// barrier-closed layers (below); Pipelined groups each record's units into
// one node and the event-global rounds into global and join nodes
// (dataflowrun.go).  One wrapper, addNode, runs every node of both.
//
// A plan step is a stage's processes and the strategy that runs them
// (paper Fig. 9); the step compiler turns it into layers of nodes of one
// dataflow.Graph:
//
//   - a process contributes one node per unit its loop iterates: the
//     station (#3, and the temp-folder jobs of #4, #7 and #13), the signal
//     (the direct #4, #7, #13 and #16 bodies), the V2 or R file (#19), the
//     component (#10), the station chained within its process (the plots),
//     or the whole process (the event-global ones);
//   - a layer runs up to its width of units at once: a sequential step is
//     one layer of width 1, its nodes chained in index order; a task step
//     is one layer of width MetaWorkers whose unit is a process's whole
//     chain; a loop or temp-folder step is one layer per round of its
//     process, of width Workers (3 for #10's component loop), and the
//     temp-folder protocol's four steps are four layers, install-exe
//     chained;
//   - a zero-cost barrier node closes every layer, so the next layer's
//     nodes start only when all of this one's have finished.
//
// The barriers are the schedule's sequential points: they end the task,
// process and stage spans and record Timings, so a stage is charged its
// barrier-to-barrier time.  On the simulated platform the graph runs
// serially, and each barrier charges its layer simsched.Makespan of the
// unit costs in index order, with the layer's width and contention, in
// place of their serial sum — the list-scheduling model of the paper's
// OpenMP loops and task groups.

// planStep is one entry of a staged plan: a stage's processes and the strategy
// that runs them.  Stage 0 marks a redundant process of the original chain,
// which runs outside every stage of the reordered schedule.
type planStep struct {
	stage StageID
	strat Strategy
	procs []ProcessID
}

// planOf derives a staged variant's plan from the process and stage tables.
// The sequential variants walk Processes in chain order (SeqOptimized skips
// the Redundant ones), one sequential step per process, attributed to the
// process's stage of the reordered schedule so sequential and parallel runs
// compare stage by stage.  The parallel variants walk Stages with their
// Partial or Full strategy column (paper Fig. 9).
func planOf(variant Variant) []planStep {
	var plan []planStep
	switch variant {
	case SeqOriginal, SeqOptimized:
		for _, p := range Processes {
			if variant == SeqOptimized && p.Redundant {
				continue
			}
			plan = append(plan, planStep{stage: StageOf(p.ID), strat: StratSequential, procs: []ProcessID{p.ID}})
		}
	case PartialParallel, FullParallel:
		for _, st := range Stages {
			strat := st.Partial
			if variant == FullParallel {
				strat = st.Full
			}
			plan = append(plan, planStep{stage: st.ID, strat: strat, procs: st.Processes})
		}
	}
	return plan
}

// stageIStep is stage I as its own step: the prologue Pipelined runs before
// it builds its record-level graph.
var stageIStep = planStep{stage: StageI, strat: StratTask, procs: Stages[StageI-1].Processes}

// runPlan executes a staged variant: its stage-I steps, which gather the
// records the rest of the graph is shaped by, then every later step on one
// graph.
func (s *state) runPlan(variant Variant) error {
	plan := planOf(variant)
	k := 0
	for k < len(plan) && plan[k].stage == StageI {
		k++
	}
	end, err := s.runSteps(plan[:k], nil, s.now())
	if err != nil {
		return err
	}
	stations, err := s.stations()
	if err != nil {
		return err
	}
	_, err = s.runSteps(plan[k:], stations, end)
	return err
}

// runSteps compiles plan steps over the given stations onto a dataflow
// graph and executes it, and returns the time its last barrier ran.  Its
// first step starts at begin: a stage runs from barrier to barrier, so the
// first stage after another graph is charged the compiling of this one.
func (s *state) runSteps(steps []planStep, stations []string, begin time.Duration) (time.Duration, error) {
	c, err := s.compileSteps(steps, stations)
	if err != nil {
		return 0, err
	}
	err = c.execute(begin)
	return c.end, err
}

// unit is one schedulable body of a process.
type unit struct {
	station string // the record it works on, for the quarantine skip; "" for event-global bodies
	run     func() error
}

// phase is one round of a process's units: a barrier-closed layer of a
// staged plan, a slice of each of Pipelined's record nodes.
type phase struct {
	task   string  // task span under the process span, "" for none
	serial bool    // the units run one after another whatever the step's width
	alpha  float64 // contention of the round on the simulated platform
	units  []unit
}

// stepRun is one plan step while its layers execute.
type stepRun struct {
	step  planStep
	span  *obs.Span
	begin time.Duration
	corr  time.Duration // what the simulated platform charged beyond the serial run
	procs []procRun     // by index in step.procs
}

// procRun is one process of a step: its span and its nodes.
type procRun struct {
	span  *obs.Span
	nodes []dataflow.NodeID
}

// layer is one barrier-closed round of a step.
type layer struct {
	step  *stepRun
	task  string // task span under the step's process, "" for none
	width int    // units run at once; <= 0 means all processors
	alpha float64
	units [][]dataflow.NodeID // chains; a unit costs its chain's sum
	sem   chan struct{}       // bounds the real platform to width, when narrower than the pool
	begin time.Duration
	span  *obs.Span
}

// stepGraph is a plan compiled onto one dataflow graph: a staged plan's
// steps as barrier-closed layers, or Pipelined's processes as record nodes
// (dataflowrun.go).
type stepGraph struct {
	s        *state
	g        *dataflow.Graph
	stations []string
	exe      string
	durs     []time.Duration // measured cost per node ID
	pids     []ProcessID     // the process of each node ID
	ends     []bool          // whether a node ends its unit, per node ID
	scratch  []string        // temp-folder scratch dirs, removed if the run fails

	// The memo's liveness (see countReads): how many nodes not yet
	// completed may read each work-directory path through the memo, and
	// the paths each node reads, by node ID.
	liveMu  sync.Mutex
	readers map[string]int
	reads   [][]string

	// The gathered input files by station (see inputFile).
	inputsOnce sync.Once
	inputs     map[string]string

	// The state record units leave for their process's event-global
	// merge, by signal index (three per station): the filters' peaks and
	// #10's picked corners.  The side channel (actioncache.go) encodes and
	// restores one record's share of it.
	peaks map[ProcessID][]seismic.PeakValues
	specs []dsp.BandPassSpec

	// The staged compile's layers.
	layers  []*layer
	cur     int             // the open layer
	barrier dataflow.NodeID // the last barrier added, -1 before the first
	end     time.Duration   // when the last barrier ran
	mon     *slotMonitor    // the pool's worker accounting; nil without an observer

	// The Pipelined compile's nodes by process, and the record weights
	// its scheduler starts the heaviest records by.
	weights []float64
	procs   map[ProcessID]*dfProc

	// Streaming execution plane (Options.Streaming; see streamrun.go): the
	// run's shared chunk pool, the gather pool of the blocking consumers,
	// one stream per (producer process, record) stream edge, and the
	// per-record scratch dirs holding stream spills.
	pool       *stream.Pool
	gatherPool *fourier.GatherPool
	streams    map[ProcessID][]*stream.Stream
	spillDirs  []string
}

// newStepGraph returns an empty graph over stations.
func (s *state) newStepGraph(stations []string) *stepGraph {
	return &stepGraph{s: s, g: dataflow.New(), stations: stations, barrier: -1,
		peaks: map[ProcessID][]seismic.PeakValues{}, readers: map[string]int{}}
}

// slotMonitor passes the pool's worker accounting on to the run's worker
// monitor, with the time nodes waited for a slot of their layer's width
// moved from busy to idle: a worker held at a narrower layer's bound does
// no work.  The workers report once the graph is done, after every wait.
type slotMonitor struct {
	*obs.WorkerMonitor
	mu   sync.Mutex
	wait time.Duration // slot waits not yet moved
}

// held records a slot wait; a nil monitor ignores it.
func (m *slotMonitor) held(d time.Duration) {
	if m != nil {
		m.mu.Lock()
		m.wait += d
		m.mu.Unlock()
	}
}

func (m *slotMonitor) WorkerSpan(worker int, busy, idle time.Duration, tasks int) {
	m.mu.Lock()
	d := min(busy, m.wait)
	m.wait -= d
	m.mu.Unlock()
	m.WorkerMonitor.WorkerSpan(worker, busy-d, idle+d, tasks)
}

// compileSteps builds the graph of the given steps over stations.
func (s *state) compileSteps(steps []planStep, stations []string) (*stepGraph, error) {
	c := s.newStepGraph(stations)
	for _, st := range steps {
		if st.strat == StratTempFolder && !s.opts.NoTempFolders && c.exe == "" {
			exe, err := s.ensureExeImage()
			if err != nil {
				return nil, err
			}
			c.exe = exe
		}
		c.addStep(st)
	}
	return c, nil
}

// addStep adds one step's layers, each closed by a barrier.
func (c *stepGraph) addStep(st planStep) {
	sr := &stepRun{step: st, procs: make([]procRun, len(st.procs))}
	if st.strat == StratSequential || st.strat == StratTask {
		// One layer: a sequential step chains all its nodes in index order,
		// a task step each process's nodes into one unit.
		l := &layer{step: sr, width: 1}
		if st.strat == StratTask {
			l.width, l.alpha = c.s.opts.MetaWorkers, simsched.ContentionCPU
		}
		var chain []dataflow.NodeID
		for k, pid := range st.procs {
			for _, ph := range c.phases(pid, st.strat) {
				for _, u := range ph.units {
					chain = c.chainNode(l, k, u, chain)
				}
			}
			if st.strat == StratTask {
				c.addUnit(l, chain)
				chain = nil
			}
		}
		c.addUnit(l, chain)
		c.closeLayer(l)
		return
	}
	// A loop or temp-folder step: one layer per round of its process.
	for k, pid := range st.procs {
		width := c.s.opts.Workers
		if pid == PPickCorners {
			// The parallel loop of paper §V-B runs over a station's three
			// components, whatever the worker budget.
			width = 3
		}
		for _, ph := range c.phases(pid, st.strat) {
			l := &layer{step: sr, task: ph.task, width: width, alpha: ph.alpha}
			if ph.serial {
				l.width = 1
			}
			var chain []dataflow.NodeID
			for _, u := range ph.units {
				chain = c.chainNode(l, k, u, chain)
				if !ph.serial {
					c.addUnit(l, chain)
					chain = nil
				}
			}
			c.addUnit(l, chain)
			c.closeLayer(l)
		}
	}
}

// addUnit records a chain of nodes as one unit of l.
func (c *stepGraph) addUnit(l *layer, chain []dataflow.NodeID) {
	if len(chain) > 0 {
		l.units = append(l.units, chain)
		c.ends[chain[len(chain)-1]] = true
	}
}

// chainNode appends the node of unit u of the step's k-th process to chain
// (nil starts a new unit, after the last barrier) and returns the extended
// chain.
func (c *stepGraph) chainNode(l *layer, k int, u unit, chain []dataflow.NodeID) []dataflow.NodeID {
	pid := l.step.step.procs[k]
	label := Processes[pid].Name
	if u.station != "" {
		label += ":" + u.station
	}
	var deps []dataflow.NodeID
	if len(chain) > 0 {
		deps = append(deps, chain[len(chain)-1])
	} else if c.barrier >= 0 {
		deps = append(deps, c.barrier)
	}
	id := c.addNode(node{pid: pid, label: label, units: []unit{u}, layer: l, first: len(chain) == 0}, deps, nil)
	l.step.procs[k].nodes = append(l.step.procs[k].nodes, id)
	return append(chain, id)
}

// node is what addNode wraps into one dataflow node: units of process pid,
// run in order.  The staged compile sets layer, whose width slot the node
// holds (taking it when first in its unit's chain); the Pipelined compile
// sets df.
type node struct {
	pid   ProcessID
	label string
	units []unit
	layer *layer
	first bool
	df    *dfNode
}

// addNode adds one node after deps, and after the dispatch of the stream
// producers sdeps (streaming runs only), and returns its ID.  The body is
// wrapped with the width slot, the cancellation check, the quarantine skip
// per unit, cost measurement, and the fail-fast cancellation of the run on
// a failure graceful degradation could not absorb, and the release of the
// memo entries it was the last reader of.  A Pipelined node also
// gets its node: span and, as a per-(process, record) node, the record
// rules of openNode and closeNode.
func (c *stepGraph) addNode(n node, deps, sdeps []dataflow.NodeID) dataflow.NodeID {
	s := c.s
	id := dataflow.NodeID(c.g.Len())
	c.durs = append(c.durs, 0)
	c.pids = append(c.pids, n.pid)
	c.ends = append(c.ends, false)
	c.reads = append(c.reads, c.countReads(n))
	run := func() (err error) {
		defer c.release(id)
		// A unit holds its slot of the layer's width from its chain's first
		// node to its last (or to the node that fails: the rest are skipped).
		if l := n.layer; l != nil && l.sem != nil {
			if n.first {
				t := time.Now()
				l.sem <- struct{}{}
				c.mon.held(time.Since(t))
			}
			defer func() {
				if err != nil || c.ends[id] {
					<-l.sem
				}
			}()
		}
		if df := n.df; df != nil && df.station != "" && s.isQuarantined(df.station) {
			return nil
		}
		if err := s.cancelled(); err != nil {
			return err
		}
		t0 := s.now()
		sp, done := c.openNode(id, n, t0)
		if done {
			return nil
		}
		for k, u := range n.units {
			if u.station != "" && s.isQuarantined(u.station) {
				continue
			}
			if k > 0 {
				if err = s.cancelled(); err != nil {
					break
				}
			}
			if err = u.run(); err != nil {
				break
			}
		}
		d := s.now() - t0
		c.durs[id] = d
		if err != nil {
			sp.EndCharged(d, obs.String("error", err.Error()))
			if classify(err) != ErrKindCanceled {
				s.fail(err)
			}
			return fmt.Errorf("pipeline: process #%d (%s): %w", n.pid, Processes[n.pid].Name, err)
		}
		c.closeNode(sp, n)
		sp.EndCharged(d)
		return nil
	}
	spec := dataflow.Spec{Label: n.label, Run: run}
	if df := n.df; df != nil {
		spec.Alpha = simsched.ContentionIO
		if Processes[n.pid].Cost == CostHeavyFLOPS {
			spec.Alpha = simsched.ContentionCPU
		}
		if df.station != "" {
			spec.Weight = c.weights[df.i]
		}
		spec.Run = c.closingStream(n.pid, df, run)
	}
	if len(sdeps) > 0 {
		return c.g.AddStream(spec, dedupNodes(sdeps), dedupNodes(deps)...)
	}
	return c.g.Add(spec, dedupNodes(deps)...)
}

// countReads registers n, the node being added, as a reader of every
// work-directory path its units read through the memo (nodeInputNames) and
// returns those paths.  Each node counts on its own, so a record whose
// process runs as several nodes (a temp-folder job's four steps, a direct
// filter's three signals) keeps its inputs until the last of them.
func (c *stepGraph) countReads(n node) []string {
	s := c.s
	if s.arts == nil {
		return nil
	}
	var paths []string
	for _, u := range n.units {
		for _, name := range c.nodeInputNames(n.pid, u.station) {
			if p := s.path(name); !slices.Contains(paths, p) {
				paths = append(paths, p)
			}
		}
	}
	for _, p := range paths {
		c.readers[p]++
	}
	return paths
}

// release retires node id, done or failed, as a reader: a path whose last
// reader it was is dropped from the memo, since no node reads it again.
// Writers precede the readers of what they write in every graph, so no
// write lands on a path after its last reader, and a drained graph leaves
// the memo empty but for the entries of scratch folders KeepTempDirs keeps.
// A failed node's skipped dependents never release, so a failed run keeps
// their inputs until its state goes.
func (c *stepGraph) release(id dataflow.NodeID) {
	if len(c.reads[id]) == 0 {
		return
	}
	c.liveMu.Lock()
	defer c.liveMu.Unlock()
	for _, p := range c.reads[id] {
		c.readers[p]--
		if c.readers[p] == 0 {
			c.s.arts.Invalidate(p)
		}
	}
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

// closeLayer adds the barrier that closes l.
func (c *stepGraph) closeLayer(l *layer) {
	var deps []dataflow.NodeID
	for _, u := range l.units {
		deps = append(deps, u[len(u)-1])
	}
	if len(deps) == 0 && c.barrier >= 0 {
		deps = append(deps, c.barrier)
	}
	i := len(c.layers)
	c.layers = append(c.layers, l)
	c.durs = append(c.durs, 0)
	c.pids = append(c.pids, 0)
	c.ends = append(c.ends, false)
	c.reads = append(c.reads, nil)
	c.barrier = c.g.Add(dataflow.Spec{Label: "barrier", Run: func() error {
		c.endLayer(i)
		return nil
	}}, deps...)
}

// execute runs the graph, its first step starting at begin: serially on the
// simulated platform, on a pool as wide as the widest layer otherwise.
func (c *stepGraph) execute(begin time.Duration) error {
	s := c.s
	workers := 1
	var mon dataflow.Monitor
	if !s.simulated() {
		if s.wmon != nil {
			c.mon = &slotMonitor{WorkerMonitor: s.wmon}
			mon = c.mon
		}
		for _, l := range c.layers {
			workers = max(workers, parallel.Workers(l.width))
		}
		for _, l := range c.layers {
			if w := parallel.Workers(l.width); w < workers && len(l.units) > w {
				l.sem = make(chan struct{}, w)
			}
		}
	}
	c.beginLayer(0, begin)
	_, err := c.g.Execute(workers, mon)
	if err != nil {
		c.abort(err)
		s.removeScratchDirs(c.scratch)
	}
	return err
}

// beginLayer opens layer i's spans at time now, and its step's if i
// starts a step.
func (c *stepGraph) beginLayer(i int, now time.Duration) {
	s := c.s
	l, sr := c.layers[i], c.layers[i].step
	c.cur = i
	if i == 0 || c.layers[i-1].step != sr {
		sr.begin = now
		parent := s.runSpan
		if sr.step.stage != 0 {
			sr.span = s.runSpan.Child("stage:"+sr.step.stage.String(), obs.KindStage, obs.Int("stage", int64(sr.step.stage)))
			parent = sr.span
		}
		for k, pid := range sr.step.procs {
			sr.procs[k].span = parent.Child("process:"+Processes[pid].Name, obs.KindProcess,
				obs.Int("process", int64(pid)), obs.String("process_name", Processes[pid].Name))
		}
	}
	l.begin = now
	if l.task != "" {
		l.span = sr.procs[0].span.Child(l.task, obs.KindTask)
	}
}

// endLayer is layer i's barrier: it charges the layer on the simulated
// platform, ends its spans (and its step's, if it is the step's last), and
// opens the next layer.  A step's stage, and a process that has its step to
// itself, are charged the barrier-to-barrier time; a process of a task step
// the work of its chain.
func (c *stepGraph) endLayer(i int) {
	s := c.s
	l, sr := c.layers[i], c.layers[i].step
	now := s.now()
	var corr time.Duration
	if s.simulated() {
		corr = c.correction(l)
		s.virt += corr
		sr.corr += corr
	}
	l.span.EndCharged(now - l.begin + corr)
	if i+1 == len(c.layers) || c.layers[i+1].step != sr {
		d := now - sr.begin + sr.corr
		for k, pid := range sr.step.procs {
			pd := d
			if len(sr.procs) > 1 {
				pd = 0
				for _, id := range sr.procs[k].nodes {
					pd += c.durs[id]
				}
			}
			s.tim.Process[pid] += pd
			sr.procs[k].span.EndCharged(pd)
		}
		if sr.step.stage != 0 {
			s.tim.Stage[sr.step.stage] += d
			sr.span.EndCharged(d)
		}
	}
	if i+1 < len(c.layers) {
		c.beginLayer(i+1, now)
	} else {
		c.end = now
	}
}

// correction is what the simulated platform charges l beyond its serial
// run: the list-scheduling makespan of its units' costs, in index order on
// its width of processors, less their sum.
func (c *stepGraph) correction(l *layer) time.Duration {
	costs := make([]time.Duration, len(l.units))
	for k, u := range l.units {
		for _, id := range u {
			costs[k] += c.durs[id]
		}
	}
	w := l.width
	if w <= 0 {
		w = c.s.opts.SimProcessors
	}
	return simsched.Makespan(costs, w, l.alpha) - simsched.Sum(costs)
}

// abort ends the spans a failed run left open, marked with its error.
func (c *stepGraph) abort(err error) {
	l, sr := c.layers[c.cur], c.layers[c.cur].step
	d := c.s.now() - sr.begin + sr.corr
	e := obs.String("error", err.Error())
	l.span.EndCharged(c.s.now()-l.begin, e)
	for _, pr := range sr.procs {
		pr.span.EndCharged(d, e)
	}
	sr.span.EndCharged(d, e)
}

// phases returns process pid's rounds of work under strategy strat: the
// body table both compiles draw on.  A round of units with a station is
// per-record work; a round of one unit without is event-global.
func (c *stepGraph) phases(pid ProcessID, strat Strategy) []phase {
	s := c.s
	if body := s.globalBody(pid); body != nil {
		return []phase{{serial: true, units: []unit{{run: body}}}}
	}
	tempFolder := strat == StratTempFolder && !s.opts.NoTempFolders
	io, cpu := simsched.ContentionIO, simsched.ContentionCPU
	perSignal := func(alpha float64, body func(smformat.SignalKey) error) []phase {
		var units []unit
		for _, key := range signals(c.stations) {
			units = append(units, unit{key.Station, func() error { return body(key) }})
		}
		return []phase{{alpha: alpha, units: units}}
	}
	perStation := func(serial bool, body func(i int, st string) error) []phase {
		units := make([]unit, len(c.stations))
		for i, st := range c.stations {
			units[i] = unit{st, func() error { return body(i, st) }}
		}
		return []phase{{serial: serial, alpha: io, units: units}}
	}
	named := func(body func(string) error) func(int, string) error {
		return func(_ int, st string) error { return body(st) }
	}
	switch pid {
	case PSeparateComponents, PSeparateComps2:
		if c.streaming() {
			return perStation(false, c.streamSeparateStation)
		}
		return perStation(false, named(s.separateStation))
	case PDefaultFilter, PCorrectedFilter:
		peaks := make([]seismic.PeakValues, 3*len(c.stations))
		c.peaks[pid] = peaks
		var phases []phase
		switch {
		case c.streaming():
			phases = perStation(false, func(i int, st string) error {
				return c.streamFilterRecord(pid, i, st, peaks[3*i:3*i+3])
			})
		case tempFolder:
			phases = c.tempPhases(pid, peaks)
		default:
			phases = c.filterPhases(peaks)
		}
		return append(phases, c.maxValuesPhase(peaks))
	case PFourier:
		switch {
		case c.streaming():
			return perStation(false, c.streamFourierRecord)
		case tempFolder:
			return c.tempPhases(pid, nil)
		}
		return perSignal(io, func(k smformat.SignalKey) error {
			return s.fourierSignal(s.dir, smformat.V2FileName(k.Station, k.Component))
		})
	case PPickCorners:
		return c.pickPhases()
	case PResponseSpectrum:
		if c.streaming() {
			return perStation(false, c.streamResponseRecord)
		}
		return perSignal(cpu, func(k smformat.SignalKey) error {
			return s.responseSignal(smformat.V2FileName(k.Station, k.Component))
		})
	case PGenerateGEM:
		// The interleaved 2x(3N) file list of the paper's section V-C.
		var units []unit
		for _, key := range signals(c.stations) {
			units = append(units,
				unit{key.Station, func() error { return s.gemJob(key, false) }},
				unit{key.Station, func() error { return s.gemJob(key, true) }})
		}
		return []phase{{alpha: io, units: units}}
	case PPlotUncorrected:
		return perStation(true, named(s.plotUncorrectedStation))
	case PPlotFourier:
		return perStation(true, named(s.plotFourierStation))
	case PPlotAccel:
		return perStation(true, named(s.plotAccelStation))
	case PPlotResponse:
		return perStation(true, named(s.plotResponseStation))
	}
	panic(fmt.Sprintf("pipeline: no body for process #%d", pid))
}

// global reports whether ph is an event-global round.
func (ph phase) global() bool { return len(ph.units) > 0 && ph.units[0].station == "" }

// globalBody returns the body of an event-global process, nil for the
// processes that iterate over records.
func (s *state) globalBody(pid ProcessID) func() error {
	switch pid {
	case PInitFlags, PInitFlags2:
		return s.procInitFlags
	case PGatherInputs:
		return s.procGatherInputs
	case PInitFilterParams:
		return s.procInitFilterParams
	case PInitMetadata, PInitMetadata2:
		return s.procInitMetadata
	case PInitFourierGraph:
		return s.procInitFourierGraph
	case PInitResponseGraph:
		return s.procInitResponseGraph
	}
	return nil
}

// filterPhases is the direct body of process #4 (default corners) or #13
// (per-signal corners from the Fourier analysis): read the corners, then
// filter every component signal into its V2 file, leaving its peaks in
// peaks.
func (c *stepGraph) filterPhases(peaks []seismic.PeakValues) []phase {
	s := c.s
	var params smformat.FilterParams
	keys := signals(c.stations)
	units := make([]unit, len(keys))
	for i, key := range keys {
		units[i] = unit{key.Station, func() (err error) {
			peaks[i], err = s.filterSignal(s.dir, key, params.Spec(key))
			return err
		}}
	}
	read := func() (err error) {
		params, err = s.readFilterParams(s.path(smformat.FilterParamsFile))
		return err
	}
	return []phase{
		{serial: true, units: []unit{{run: read}}},
		{alpha: simsched.ContentionIO, units: units},
	}
}

// maxValuesPhase is the merge that ends processes #4 and #13: write the
// surviving records' peaks as the max-values metadata.
func (c *stepGraph) maxValuesPhase(peaks []seismic.PeakValues) phase {
	s := c.s
	keys := signals(c.stations)
	write := func() error {
		merged := smformat.MaxValues{Peaks: make(map[smformat.SignalKey]seismic.PeakValues, len(keys))}
		for i, key := range keys {
			if !s.isQuarantined(key.Station) {
				merged.Peaks[key] = peaks[i]
			}
		}
		return smformat.WriteMaxValuesFileFS(s.ws, s.path(smformat.MaxValuesFile), merged)
	}
	return phase{serial: true, units: []unit{{run: write}}}
}

// pickPhases is process #10: pick FPL/FSL per component signal from its
// velocity Fourier spectrum (the paper's AnalyzeFourier reads and analyzes
// the three component spectra inside its parallel loop), then store the
// surviving records' corners in the filter parameters.
func (c *stepGraph) pickPhases() []phase {
	s := c.s
	keys := signals(c.stations)
	c.specs = make([]dsp.BandPassSpec, len(keys))
	units := make([]unit, len(keys))
	for i, key := range keys {
		units[i] = unit{key.Station, func() (err error) {
			c.specs[i], err = s.pickSignalSpec(key.Station, key.Component)
			return err
		}}
	}
	write := func() error {
		params, err := s.readFilterParams(s.path(smformat.FilterParamsFile))
		if err != nil {
			return err
		}
		for i, key := range keys {
			if !s.isQuarantined(key.Station) {
				params.PerSignal[key] = c.specs[i]
			}
		}
		return s.writeFilterParams(s.path(smformat.FilterParamsFile), params)
	}
	return []phase{
		{alpha: simsched.ContentionCPU, units: units},
		{serial: true, units: []unit{{run: write}}},
	}
}

// tempPhases is the temp-folder protocol of process #4, #7 or #13 (the
// paper's ParallelizeCorrection and ParallelizeFourier): one job per
// station, each protocol step a round over the jobs reported as a task
// span.  A filter job leaves its record's peaks in peaks.
func (c *stepGraph) tempPhases(pid ProcessID, peaks []seismic.PeakValues) []phase {
	s := c.s
	jobs := make([]*tempJob, len(c.stations))
	for i, st := range c.stations {
		var pk []seismic.PeakValues
		if peaks != nil {
			pk = peaks[3*i : 3*i+3]
		}
		jobs[i] = s.newTempJob(pid, i, st, c.exe, pk)
		c.scratch = append(c.scratch, jobs[i].rc.scratch)
	}
	var phases []phase
	for _, step := range s.tempSteps() {
		// The per-instance work is dominated by reading and writing the
		// large V1/V2 text payloads, not by the arithmetic, so it contends
		// like I/O (the paper observes 1.9x-2.0x for these stages on 8 cores).
		ph := phase{task: step.name, serial: step.sequential, alpha: simsched.ContentionIO}
		for _, j := range jobs {
			ph.units = append(ph.units, unit{j.rc.station, func() error { return step.run(s, j) }})
		}
		phases = append(phases, ph)
	}
	return phases
}
