package dataflow

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"accelproc/internal/obs"
	"accelproc/internal/parallel"
)

// Policy selects which admitted job's ready node a free worker runs next.
// Within a job, nodes always dispatch critical-path-first (see the package
// comment); the policies are the two endpoints of the latency/throughput
// trade-off of one mapping model.
type Policy int

const (
	// Balanced protects the oldest open job's critical path and back-fills
	// idle workers from the next-oldest job with ready work.  It dispatches
	// in Latency's order but opens two jobs at once (see DefaultAdmit).  The
	// default.
	Balanced Policy = iota
	// Latency orders ready nodes oldest-job-first, critical-path-first
	// within a job, minimizing per-job (p99) latency.
	Latency
	// Throughput orders the merged ready set critical-path-first across all
	// jobs, maximizing aggregate records/sec.
	Throughput
)

// ParsePolicy maps a CLI spelling to a Policy; the empty string selects
// Balanced.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "balanced":
		return Balanced, nil
	case "latency":
		return Latency, nil
	case "throughput":
		return Throughput, nil
	}
	return 0, fmt.Errorf("dataflow: unknown fleet policy %q (want latency, throughput, or balanced)", s)
}

func (p Policy) String() string {
	switch p {
	case Latency:
		return "latency"
	case Throughput:
		return "throughput"
	default:
		return "balanced"
	}
}

// DefaultAdmit returns the admission cap used when Options.Admit <= 0.
// Latency admits one job at a time — the strict endpoint, since a job's
// latency clock starts at admission and any co-admitted sibling steals
// critical-path workers.  Throughput opens as many jobs as the pool is
// wide, so the merged ready set can always saturate it.  Balanced opens two:
// one protected, one back-filling.
func (p Policy) DefaultAdmit(workers int) int {
	switch p {
	case Latency:
		return 1
	case Throughput:
		return max(workers, 2)
	default:
		return 2
	}
}

// Job is one unit of work for Run: a prebuilt graph, or a Build that makes
// the graph on a pool worker plus an optional Finish.
type Job struct {
	// Name labels the job in results.
	Name string
	// Graph, when non-nil, is the job's prebuilt graph; its nodes become
	// ready at admission, and Build is unused.
	Graph *Graph
	// Build performs the job's pre-graph work (the pipeline's stage-I
	// prologue) on a pool worker and returns its graph.  It is queued at
	// admission with infinite priority, so Throughput runs it ahead of every
	// node.  A Build error fails the job; its graph never runs.
	Build func() (*Graph, error)
	// Finish completes the job after its graph drains (or Build fails),
	// receiving the job's error per Execute's error-selection rule and
	// returning the job's final error.  It runs without the scheduler lock,
	// and the job keeps its admission slot until it returns.  Nil Finish
	// passes the error through.
	Finish func(err error) error
}

// Result reports one job's passage through the scheduler.  Admitted and
// Done are offsets from the Run call; every job is considered enqueued at
// offset zero.
type Result struct {
	Name     string
	Err      error
	Admitted time.Duration
	Done     time.Duration
	// Stats holds the job's per-node stats in NodeID order, with offsets
	// from the Run call; nil when Build failed.
	Stats []NodeStat
}

// Wait returns how long the job sat in the arrival queue before admission.
func (r Result) Wait() time.Duration { return r.Admitted }

// Latency returns the admission-to-done latency — the clock the latency
// policy minimizes.
func (r Result) Latency() time.Duration { return r.Done - r.Admitted }

// Options configures Run.
type Options struct {
	// Workers bounds the shared pool; <= 0 selects one worker per processor.
	Workers int
	// Admit caps concurrently-open jobs; <= 0 selects the policy default
	// (see Policy.DefaultAdmit).
	Admit int
	// Policy selects the dispatch order; the zero value is Balanced.
	Policy Policy
	// Observer receives the fleet_* scheduler gauges (obs.SchedulerMonitor)
	// and worker occupancy; nil disables instrumentation.
	Observer *obs.Observer
}

// NodeStat reports one executed node: when it became ready (all deps done),
// when a worker started it, and when it finished — all offsets from the
// start of the run.  Skipped nodes (a dependency failed) report Start ==
// End == Ready with Worker == -1 and Skipped == true.
type NodeStat struct {
	ID      NodeID
	Label   string
	Ready   time.Duration
	Start   time.Duration
	End     time.Duration
	Worker  int
	Skipped bool
}

// Wait returns how long the node sat in the ready queue before a worker
// picked it up.
func (s NodeStat) Wait() time.Duration { return s.Start - s.Ready }

// Monitor receives per-worker busy/idle accounting, structurally matching
// parallel.Monitor so obs.WorkerMonitor plugs in directly.
type Monitor interface {
	WorkerSpan(worker int, busy, idle time.Duration, tasks int)
}

// WaitMonitor optionally extends Monitor with per-node ready-queue waits.
type WaitMonitor interface {
	TaskWait(d time.Duration)
}

// Execute runs the graph on a bounded pool of workers (values <= 0 select
// one worker per node) and returns per-node stats in node-ID order.  It is
// a one-job Run, so every policy dispatches by (priority, weight, id).
//
// Error semantics follow the parallel package: when a node's Run fails, its
// transitive dependents are skipped (their inputs never materialized) but
// independent branches keep running; the returned error is the failure of
// the smallest node ID, with real errors displacing cancellations so
// fail-fast graphs report the cause rather than the cancellation it
// triggered.
func (g *Graph) Execute(workers int, mon Monitor) ([]NodeStat, error) {
	n := len(g.nodes)
	if n == 0 {
		return nil, nil
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	r := newRun([]Job{{Graph: g}}, 1, Throughput, mon, nil)
	r.execute(workers)
	return r.res[0].Stats, r.res[0].Err
}

// Run executes every job on one shared pool of opts.Workers workers and
// returns per-job results in input order.  Admission is FIFO and capped at
// opts.Admit open jobs, bounding scratch footprint and keeping per-job
// latency from degrading into round-robin thrash over the whole queue.
// Dispatch reports every node to its job's tracker, so stream edges are
// released at dispatch here as in Execute.
//
// Run never fails as a whole — per-job errors land in the corresponding
// Result, and the caller decides whether any is fatal.  Cancellation is the
// jobs' own concern: a canceled context makes Build and node bodies return
// quickly, so the pool drains rather than aborts, and every Result is still
// populated.
func Run(jobs []Job, opts Options) []Result {
	w := parallel.Workers(opts.Workers)
	admit := opts.Admit
	if admit <= 0 {
		admit = opts.Policy.DefaultAdmit(w)
	}
	sm := obs.NewSchedulerMonitor(opts.Observer, "fleet")
	r := newRun(jobs, admit, opts.Policy, sm.Workers(), sm)
	r.execute(w)
	return r.res
}

// job is one job's scheduler state.
type job struct {
	idx   int
	spec  Job
	tr    *tracker
	ready readyHeap
	build bool // the job's Build is queued
}

// run is the scheduler state shared by Run's workers and Simulate's event
// loop; the real pool guards everything with mu.
type run struct {
	policy Policy
	admit  int
	mon    Monitor
	wait   WaitMonitor
	sm     *obs.SchedulerMonitor
	clock  func() time.Duration

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     []*job
	res      []Result
	open     []*job // admitted and not yet done, in admission order
	next     int    // next un-admitted job
	nready   int
	finished int
}

func newRun(jobs []Job, admit int, policy Policy, mon Monitor, sm *obs.SchedulerMonitor) *run {
	r := &run{policy: policy, admit: admit, mon: mon, sm: sm,
		jobs: make([]*job, len(jobs)), res: make([]Result, len(jobs))}
	r.wait, _ = mon.(WaitMonitor)
	r.cond = sync.NewCond(&r.mu)
	for i, spec := range jobs {
		r.jobs[i] = &job{idx: i, spec: spec}
		r.res[i].Name = spec.Name
	}
	return r
}

// execute drains every job on w goroutines, timing on the real clock.
func (r *run) execute(w int) {
	start := time.Now()
	r.clock = func() time.Duration { return time.Since(start) }
	if len(r.jobs) == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for t := 0; t < w; t++ {
		go func(worker int) {
			defer wg.Done()
			r.worker(worker)
		}(t)
	}
	wg.Wait()
}

// worker is the pool loop: admit, pop the policy-best ready item, run it
// unlocked, fold the completion back in, and finish jobs whose graphs
// drained.
func (r *run) worker(id int) {
	var busy time.Duration
	tasks := 0
	joined := time.Now()
	r.mu.Lock()
	for {
		r.admitReady()
		j, nd := r.pop()
		if j == nil {
			if r.finished == len(r.jobs) {
				break
			}
			r.cond.Wait()
			continue
		}
		now := r.clock()
		if nd == nil {
			r.taskWait(now - r.res[j.idx].Admitted)
			r.mu.Unlock()
			g, err := j.spec.Build()
			r.mu.Lock()
			if err != nil {
				r.finish(j, err)
			} else {
				r.start(j, g)
			}
			busy += r.clock() - now
		} else {
			st := &r.res[j.idx].Stats[nd.id]
			st.Start, st.Worker = now, id
			r.taskWait(now - st.Ready)
			// Dispatch releases the node's outgoing stream edges: its stream
			// consumers become runnable now and overlap with it, reading
			// chunks as the producer emits them.
			if rd, sk := j.tr.dispatched(nd.id); len(rd)+len(sk) > 0 {
				r.release(j, rd, sk, now)
				r.cond.Broadcast()
			}
			r.mu.Unlock()
			err := nd.spec.Run()
			end := r.clock()
			r.mu.Lock()
			r.complete(j, nd.id, err, end)
			busy += end - now
		}
		tasks++
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	if r.mon != nil {
		r.mon.WorkerSpan(id, busy, max(time.Since(joined)-busy, 0), tasks)
	}
}

func (r *run) taskWait(d time.Duration) {
	if r.wait != nil {
		r.wait.TaskWait(d)
	}
}

// admitReady admits arrivals while open slots remain: a prebuilt graph's
// nodes become ready, a Build is queued.
func (r *run) admitReady() {
	for r.next < len(r.jobs) && len(r.open) < r.admit {
		j := r.jobs[r.next]
		r.next++
		r.open = append(r.open, j)
		r.res[j.idx].Admitted = r.clock()
		r.sm.Admitted()
		if j.spec.Graph != nil {
			r.start(j, j.spec.Graph)
		} else {
			j.build = true
			r.nready++
		}
	}
	r.sm.Admission(len(r.open), len(r.jobs)-r.next)
}

// start makes g the job's graph and queues its initial ready set; an empty
// graph finishes the job at once.
func (r *run) start(j *job, g *Graph) {
	j.tr = newTracker(g)
	stats := make([]NodeStat, len(g.nodes))
	for _, nd := range g.nodes {
		stats[nd.id] = NodeStat{ID: nd.id, Label: nd.spec.Label, Worker: -1}
	}
	r.res[j.idx].Stats = stats
	if j.tr.done() {
		r.finish(j, nil)
		return
	}
	r.release(j, j.tr.initialReady(), nil, r.clock())
}

// complete records node id's end, folds its completion into its job and
// finishes the job once its graph drained.
func (r *run) complete(j *job, id NodeID, err error, end time.Duration) {
	r.res[j.idx].Stats[id].End = end
	rd, sk := j.tr.complete(id, err)
	r.release(j, rd, sk, end)
	if j.tr.done() {
		r.finish(j, j.tr.err)
	}
}

// release records the nodes a dispatch or completion at now resolved:
// skipped nodes get their stats, ready ones join the job's ready heap.
func (r *run) release(j *job, ready, skipped []NodeID, now time.Duration) {
	stats := r.res[j.idx].Stats
	for _, s := range skipped {
		st := &stats[s]
		st.Ready, st.Start, st.End, st.Skipped = now, now, now, true
	}
	for _, id := range ready {
		stats[id].Ready = now
		heap.Push(&j.ready, j.tr.g.nodes[id])
	}
	r.nready += len(ready)
}

// finish runs the job's Finish unlocked and releases its admission slot.
// It first drops the job's graph, tracker and Build/Finish closures: the
// scheduler keeps only the job's Result, so a finished job's state is
// collectable while the rest of the run drains.
func (r *run) finish(j *job, err error) {
	f := j.spec.Finish
	j.spec, j.tr, j.ready = Job{}, nil, nil
	if f != nil {
		r.mu.Unlock()
		err = f(err)
		r.mu.Lock()
	}
	res := &r.res[j.idx]
	res.Done, res.Err = r.clock(), err
	r.open = slices.DeleteFunc(r.open, func(o *job) bool { return o == j })
	r.finished++
	r.sm.Completed(res.Done - res.Admitted)
}

// pop removes the policy-best ready item: its job, and its node, or nil
// for the job's Build.  Latency and Balanced serve the oldest open job with
// ready work; Throughput the best head across open jobs by (priority,
// weight, job, node), a Build counting as infinite priority.  Within a job
// the heap order decides, so the order is total and single-worker
// schedules are reproducible.
func (r *run) pop() (*job, *node) {
	var best *job
	for _, j := range r.open {
		if !j.build && len(j.ready) == 0 {
			continue
		}
		if best == nil {
			best = j
			if r.policy != Throughput {
				break
			}
		} else if headBefore(j, best) {
			best = j
		}
	}
	if best == nil {
		return nil, nil
	}
	r.nready--
	r.sm.QueueDepth(r.nready)
	if best.build {
		best.build = false
		return best, nil
	}
	return best, heap.Pop(&best.ready).(*node)
}

// headBefore reports whether a's next item dispatches strictly before b's
// under Throughput; a is the younger job, so ties go to b.
func headBefore(a, b *job) bool {
	ap, aw := a.head()
	bp, bw := b.head()
	if ap != bp {
		return ap > bp
	}
	return aw > bw
}

// head returns the priority and weight of the job's next item.
func (j *job) head() (pri, weight float64) {
	if j.build {
		return math.Inf(1), 0
	}
	n := j.ready[0]
	return n.pri, n.spec.Weight
}
