package pipeline

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"accelproc/internal/artifact"
	"accelproc/internal/faults"
	"accelproc/internal/ingest"
	"accelproc/internal/obs"
	"accelproc/internal/parallel"
	"accelproc/internal/seismic"
	"accelproc/internal/simsched"
	"accelproc/internal/smformat"
	"accelproc/internal/storage"
)

// state carries the per-run context shared by the process implementations:
// the work directory, the resolved options, the timing collector, and the
// observability handles.  All inter-process data flows through files, never
// through state.
type state struct {
	ctx context.Context
	// fail cancels the run context with a cause: the fail-fast path taken
	// when a parallel body hits a non-degradable error, so sibling workers
	// stop at their next cancellation point instead of finishing the loop.
	fail context.CancelCauseFunc
	dir  string
	opts Options
	tim  Timings

	// Storage and robustness machinery.  ws is the run's storage backend
	// (the undecorated workspace selected by Options.Storage); fs is the
	// surface every event-scoped staging operation goes through — ws wrapped
	// by the chaos decorator in chaos runs, ws itself otherwise; chaos
	// scopes record-level fault decisions; retry is the resolved policy.
	ws    storage.Workspace
	fs    faults.FS
	chaos *faults.Chaos
	retry RetryPolicy

	// informat is the decode-plane format override resolved from
	// Options.Format; nil means every input file is sniffed individually.
	informat ingest.Format

	// arts is the run's write-through artifact memo (see internal/artifact
	// and cache.go): decoded V1/V2/F/R payloads keyed by path and content
	// generation, so consumers skip re-parsing what a producer just
	// formatted.  Nil when Options.Cache disables caching — every store
	// method is nil-safe, so no call site checks.
	arts *artifact.Store
	// acache is the persistent content-addressed action cache (CacheMode
	// CachePersistent only; see actioncache.go for the pipeline's digest
	// scheme).  Nil otherwise, and nil under chaos: fault injection must
	// exercise the real staging protocol, not cached restores of it.
	acache *artifact.ActionCache

	// Write-ahead run journal (see journal.go).  journal is nil when
	// Options.Journal is off or the journal could not be opened; resumeDone
	// holds the replayed nodes the scheduler may skip — written once,
	// single-threaded, in initJournal, then read-only during execution.
	journal      *runJournal
	resumeDone   map[nodeKey]journalNode
	resumeStats  ResumeStats
	nodesSkipped atomic.Int64

	// Quarantine record: stations condemned by the retry engine, excluded
	// from every subsequent stations() listing so the event continues with
	// the survivors.
	quarMu         sync.Mutex
	quarantinedSet map[string]bool
	outcomes       []RecordOutcome
	nRetries       atomic.Int64
	// virt accumulates virtual-time corrections from the simulated
	// platform: each simulated parallel construct adds
	// (simulated makespan - serial execution time), a negative quantity,
	// so that wall + virt is the run's time on the simulated machine.
	virt time.Duration

	// Observability.  runSpan and stageSpan are written only at the
	// sequential points between stages; process spans are threaded
	// explicitly (timedProc) because task-parallel stages time processes
	// concurrently.  All handles are nil-safe when no Observer is set.
	runSpan    *obs.Span
	stageSpan  *obs.Span
	wmon       *obs.WorkerMonitor
	records    *obs.Counter
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter
	retries    *obs.Counter
	quarCount  *obs.Counter
	faultsCtr  *obs.Counter
	cleanupErr *obs.Counter
	links      *obs.Counter
	// recNodesExec counts per-(record,process) dataflow nodes that actually
	// ran their bodies (as opposed to restoring from the action cache) —
	// the warm-restart tests' "only the flipped record re-executed" signal.
	recNodesExec *obs.Counter
	// journalReplays / nodesSkippedCtr / sweptCtr mirror ResumeStats as
	// metrics, so the crash-matrix tests can assert resume behavior through
	// the observer like everything else.
	journalReplays  *obs.Counter
	nodesSkippedCtr *obs.Counter
	sweptCtr        *obs.Counter
}

// simulated reports whether parallel constructs run on the simulated
// platform instead of real goroutines.
func (s *state) simulated() bool { return s.opts.SimProcessors > 0 }

// now returns a monotonic timestamp for duration measurement.  On the
// simulated platform (where every body executes serially) it is the
// process CPU clock, immune to external host load; on the real platform it
// is wall time, which genuinely reflects parallel execution.
func (s *state) now() time.Duration {
	if s.simulated() && haveCPUClock {
		return cpuNow()
	}
	return time.Duration(time.Now().UnixNano())
}

// monitor returns the worker monitor as a parallel.Monitor interface,
// carefully keeping the interface itself nil when no observer is attached
// (a typed-nil *obs.WorkerMonitor would defeat the mon == nil fast paths in
// the parallel package).
func (s *state) monitor() parallel.Monitor {
	if s.wmon == nil {
		return nil
	}
	return s.wmon
}

// cancelled reports the context's error, making every parallel chunk and
// inter-process boundary a cancellation point.
func (s *state) cancelled() error { return context.Cause(s.ctx) }

// parFor executes body over [0, n) with the requested worker budget.  On
// the real platform it is a goroutine parallel loop; on the simulated
// platform the bodies run serially with per-item cost measurement, and the
// virtual clock is charged the list-scheduling makespan for the budgeted
// workers under the contention model of the given cost class.  In both
// modes every iteration first checks the run context, so cancellation
// aborts inside a chunk rather than only at the next stage boundary.
func (s *state) parFor(n, workers int, class Cost, body func(int) error) error {
	checked := func(i int) error {
		if err := s.cancelled(); err != nil {
			return err
		}
		err := body(i)
		if err != nil && classify(err) != ErrKindCanceled {
			// Fail fast: a body error that graceful degradation could not
			// absorb dooms the run, so cancel the run context with the real
			// cause and let sibling workers stop at their next check.
			s.fail(err)
		}
		return err
	}
	if !s.simulated() || workers == 1 {
		// Guided scheduling instead of static: record sizes span 56K-384K
		// data points, so equal-count static blocks leave workers idling
		// behind whichever block drew the big records (the stage-IX straggler
		// problem).  Guided claims shrink toward the tail, keeping occupancy
		// high without per-iteration dispatch overhead.
		return parallel.ParallelForMonitored(n, workers, parallel.ScheduleGuided, 1, s.monitor(), checked)
	}
	w := workers
	if w <= 0 {
		w = s.opts.SimProcessors
	}
	durs := make([]time.Duration, n)
	var firstErr error
	for i := 0; i < n; i++ {
		start := s.now()
		if err := checked(i); err != nil && firstErr == nil {
			firstErr = err
		}
		durs[i] = s.now() - start
	}
	if firstErr != nil {
		return firstErr
	}
	s.virt += simsched.Makespan(durs, w, s.contention(class)) - simsched.Sum(durs)
	return nil
}

// contention maps a process cost class to the simulated platform's
// contention coefficient.
func (s *state) contention(class Cost) float64 {
	if class == CostHeavyFLOPS {
		return s.opts.ContentionCPU
	}
	return s.opts.ContentionIO
}

func newState(ctx context.Context, dir string, opts Options) (*state, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("pipeline: work directory: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("pipeline: %s is not a directory", dir)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Streaming && opts.Chaos != nil {
		// Chaos interposes on the staged temp-folder protocol; the streaming
		// plane bypasses that protocol entirely, so combining them would
		// silently test nothing.
		return nil, fmt.Errorf("pipeline: streaming mode cannot be combined with chaos fault injection")
	}
	ctx, fail := context.WithCancelCause(ctx)
	s := &state{ctx: ctx, fail: fail, dir: dir, opts: opts.withDefaults()}
	s.retry = s.opts.Retry.withDefaults()
	s.quarantinedSet = make(map[string]bool)
	if name := s.opts.Format; name != "" {
		f, err := ingest.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		s.informat = f
	}
	ws, err := storage.New(s.opts.Storage)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	s.ws = ws
	s.fs = ws
	if c := s.opts.Chaos; c != nil {
		s.chaos = faults.NewChaos(faults.NewInjector(*c), ws, s.sleep)
		s.fs = s.chaos.At("", "")
	}
	if cc := s.opts.Cache; cc.Mode != CacheOff {
		s.arts = artifact.NewMemo(ws.Generation)
		// The action cache is bypassed under chaos (fault injection must
		// exercise the real staging protocol) and under streaming (node
		// outputs are produced incrementally through Create, never read back
		// whole for a Put, and restores would race the stream consumers).
		if cc.Mode == CachePersistent && s.chaos == nil && !s.opts.Streaming {
			root := cc.Dir
			if root == "" {
				root = filepath.Join(dir, CacheDirName)
			}
			s.acache, err = artifact.NewActionCache(ws, root, cc.maxBytes(), cc.VerifyOnHit)
			if err != nil {
				return nil, fmt.Errorf("pipeline: %w", err)
			}
		}
	}
	if o := s.opts.Observer; o != nil {
		s.wmon = obs.NewWorkerMonitor(o, "pipeline")
		s.records = o.Counter("records_processed_total")
		s.bytesIn = o.Counter("bytes_staged_in_total")
		s.bytesOut = o.Counter("bytes_staged_out_total")
		s.retries = o.Counter("retries")
		s.quarCount = o.Counter("records_quarantined")
		s.faultsCtr = o.Counter("faults_injected")
		s.cleanupErr = o.Counter("scratch_cleanup_errors")
		s.links = o.Counter("links_total")
		s.arts.SetCounters(o.Counter("cache_hits_total"),
			o.Counter("cache_misses_total"), o.Counter("cache_bytes_saved_total"))
		s.acache.SetCounters(o.Counter("action_cache_hits_total"),
			o.Counter("action_cache_misses_total"),
			o.Counter("action_cache_evictions_total"),
			o.Gauge("action_cache_bytes"))
		s.recNodesExec = o.Counter("dataflow_record_nodes_executed_total")
		s.journalReplays = o.Counter("journal_replays")
		s.nodesSkippedCtr = o.Counter("nodes_skipped_resume")
		s.sweptCtr = o.Counter("stale_scratch_swept")
		o.Counter("scrub_orphans_removed").Add(float64(s.acache.SweptOrphans()))
	}
	return s, nil
}

// fsAt returns the storage surface for record-scoped staging operations of
// the given stage tag and station: the workspace wrapped with record-scoped
// fault injection under chaos, the bare workspace otherwise.
func (s *state) fsAt(tag, station string) faults.FS {
	if s.chaos == nil {
		return s.ws
	}
	return s.chaos.At(tag, station)
}

// path resolves a file name inside the work directory.
func (s *state) path(name string) string { return filepath.Join(s.dir, name) }

// timedProc runs one process body and records its (virtual) time: the wall
// time plus any corrections the simulated platform charged during the body.
// A process span is opened under the current stage span (or the run span
// when the process runs outside any stage) and ended with the charged
// duration, so trace trees agree with Result.Timings.  The span is passed to
// the body for its child task spans (the temp-folder steps) rather than kept
// on state, because task-parallel stages time several processes at once.
// Each process boundary is a cancellation point.
func (s *state) timedProc(id ProcessID, body func(sp *obs.Span) error) error {
	if err := s.cancelled(); err != nil {
		return err
	}
	parent := s.stageSpan
	if parent == nil {
		parent = s.runSpan
	}
	sp := parent.Child("process:"+Processes[id].Name, obs.KindProcess,
		obs.Int("process", int64(id)), obs.String("process_name", Processes[id].Name))
	v0 := s.virt
	start := s.now()
	err := body(sp)
	d := (s.now() - start) + (s.virt - v0)
	s.tim.Process[id] += d
	if err != nil {
		sp.EndCharged(d, obs.String("error", err.Error()))
		return fmt.Errorf("pipeline: process #%d (%s): %w", id, Processes[id].Name, err)
	}
	sp.EndCharged(d)
	return nil
}

// timedStage measures the (virtual) time of a whole stage and wraps it in a
// stage span nested under the run span.
func (s *state) timedStage(id StageID, body func() error) error {
	if err := s.cancelled(); err != nil {
		return err
	}
	sp := s.runSpan.Child("stage:"+id.String(), obs.KindStage, obs.Int("stage", int64(id)))
	s.stageSpan = sp
	v0 := s.virt
	start := s.now()
	err := body()
	d := (s.now() - start) + (s.virt - v0)
	s.tim.Stage[id] += d
	s.stageSpan = nil
	if err != nil {
		sp.EndCharged(d, obs.String("error", err.Error()))
		return err
	}
	sp.EndCharged(d)
	return nil
}

// timedTask wraps one sub-process unit of work (a temp-folder staging step)
// in a task span under parent, charged with virtual-corrected time.
func (s *state) timedTask(parent *obs.Span, name string, body func() error) error {
	sp := parent.Child(name, obs.KindTask)
	v0 := s.virt
	start := s.now()
	err := body()
	d := (s.now() - start) + (s.virt - v0)
	if err != nil {
		sp.EndCharged(d, obs.String("error", err.Error()))
		return err
	}
	sp.EndCharged(d)
	return nil
}

// inputsByStation reads the gathered input list (the product of process #1)
// and maps every station code to its input file name — since the ingest
// plane, the list can mix any registered format, so the station is the name
// minus whatever registered extension it carries.  Quarantined records are
// NOT filtered here: callers that need only survivors use stations().
func (s *state) inputsByStation() (map[string]string, error) {
	list, err := smformat.ReadFileListFileFS(s.ws, s.path(smformat.V1ListFile))
	if err != nil {
		return nil, err
	}
	m := make(map[string]string, len(list.Files))
	for _, f := range list.Files {
		st, ok := ingest.StationOf(f)
		if !ok {
			return nil, fmt.Errorf("pipeline: v1list entry %q is not a record file of a registered format", f)
		}
		m[st] = f
	}
	return m, nil
}

// inputFileOf resolves one station's input file name from the gathered list.
func (s *state) inputFileOf(st string) (string, error) {
	m, err := s.inputsByStation()
	if err != nil {
		return "", err
	}
	name, ok := m[st]
	if !ok {
		return "", fmt.Errorf("pipeline: station %s has no input file in v1list", st)
	}
	return name, nil
}

// recordStations reads the gathered input list (the product of process #1)
// and returns every station code in sorted order, quarantined or not.
func (s *state) recordStations() ([]string, error) {
	m, err := s.inputsByStation()
	if err != nil {
		return nil, err
	}
	stations := make([]string, 0, len(m))
	for st := range m {
		stations = append(stations, st)
	}
	sort.Strings(stations)
	return stations, nil
}

// stations is recordStations without the records condemned to quarantine:
// downstream processes see only the survivors.
func (s *state) stations() ([]string, error) {
	all, err := s.recordStations()
	if err != nil {
		return nil, err
	}
	live := all[:0]
	for _, st := range all {
		if !s.isQuarantined(st) {
			live = append(live, st)
		}
	}
	return live, nil
}

// liveFiles filters a metadata file list down to the entries of surviving
// records.  The lists name every gathered record, so the list-driven
// processes (#7, #16) must drop the per-component files of condemned
// stations.
func (s *state) liveFiles(names []string) []string {
	s.quarMu.Lock()
	qs := make([]string, 0, len(s.quarantinedSet))
	for st := range s.quarantinedSet {
		qs = append(qs, st)
	}
	s.quarMu.Unlock()
	if len(qs) == 0 {
		return names
	}
	dead := make(map[string]bool, 12*len(qs))
	for _, st := range qs {
		for _, c := range seismic.Components {
			dead[smformat.V1ComponentFileName(st, c)] = true
			dead[smformat.V2FileName(st, c)] = true
			dead[smformat.FourierFileName(st, c)] = true
			dead[smformat.ResponseFileName(st, c)] = true
		}
	}
	live := make([]string, 0, len(names))
	for _, n := range names {
		if !dead[n] {
			live = append(live, n)
		}
	}
	return live
}

// signals expands stations into the 3N (station, component) pairs in
// deterministic order.
func signals(stations []string) []smformat.SignalKey {
	keys := make([]smformat.SignalKey, 0, 3*len(stations))
	for _, st := range stations {
		for _, c := range seismic.Components {
			keys = append(keys, smformat.SignalKey{Station: st, Component: c})
		}
	}
	return keys
}
