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
	"accelproc/internal/seismic"
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
	// CachePersistent only, which Options.Validate admits for Pipelined
	// runs without chaos; see actioncache.go for the pipeline's digest
	// scheme).  Nil otherwise.
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
	// platform: each simulated layer of a staged graph, and each Pipelined
	// graph, adds (simulated makespan - serial execution time), a negative
	// quantity, so that wall + virt is the run's time on the simulated
	// machine.
	virt time.Duration

	// Observability.  The stage, process and task spans below runSpan are
	// opened and ended by the step compiler's barriers (steps.go).  All
	// handles are nil-safe when no Observer is set.
	runSpan    *obs.Span
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

// cancelled reports the context's error, making every parallel chunk and
// inter-process boundary a cancellation point.
func (s *state) cancelled() error { return context.Cause(s.ctx) }

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
		if cc.Mode == CachePersistent {
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
	if newStateHook != nil {
		newStateHook(s)
	}
	return s, nil
}

// newStateHook, when set, sees every run state newState creates.  Tests use
// it to inspect a run's memo after the run, and to check that a batch or
// fleet keeps no finished event's state alive.
var newStateHook func(*state)

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

// timedTask wraps one unit of work outside every stage (the run's finalize
// epilogue) in a task span under parent, charged with virtual-corrected
// time.
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
