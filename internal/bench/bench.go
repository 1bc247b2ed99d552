// Package bench is the experiment harness that regenerates the paper's
// evaluation: Table I (per-event execution times of the variants),
// Figure 11 (per-stage times and speedups on the largest event), Figure 12
// (the per-event comparison, the same data as Table I), and Figure 13
// (speedup and throughput versus problem size).
//
// The harness generates each paper event synthetically (see internal/synth
// for the substitution rationale), prepares a fresh work directory per
// variant, runs the pipeline, and reports timings in the paper's layout.
package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"accelproc/internal/faults"
	"accelproc/internal/obs"
	"accelproc/internal/pipeline"
	"accelproc/internal/response"
	"accelproc/internal/storage"
	"accelproc/internal/synth"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale multiplies every event's data-point count; 1.0 reproduces the
	// paper's sizes (56K-384K points), smaller values run the same shape
	// faster.  Zero selects 1.0.
	Scale float64
	// Workers is the processor budget for the parallel variants
	// (0 = all processors, like the paper's use of the full machine).
	Workers int
	// Response is the stage IX workload.  The zero value selects the
	// legacy-shape default: the Duhamel O(D²) method on ShapePeriods
	// periods, which reproduces the paper's stage IX share (~57% of the
	// sequential runtime).
	Response response.Config
	// Events are the event specs to process; nil selects the paper's six.
	Events []synth.EventSpec
	// WorkRoot is where per-run work directories are created; empty
	// selects the OS temp directory.
	WorkRoot string
	// Variants are the implementations to run; nil selects all five (the
	// paper's four plus the barrier-free Pipelined dataflow schedule).
	Variants []pipeline.Variant
	// SimProcessors selects the evaluation platform: 0 (auto) simulates
	// the paper's 8-processor machine when the host has fewer than
	// PaperProcessors cores and uses real goroutine parallelism otherwise;
	// a positive value forces simulation of that many processors; a
	// negative value forces real execution.  See internal/simsched for
	// the platform model.
	SimProcessors int
	// Repeat runs every (event, variant) measurement this many times and
	// keeps the fastest, the standard defense against scheduler noise.
	// Zero selects 1.
	Repeat int
	// Observer, when non-nil, receives every pipeline run's spans and
	// metrics (trace files, Prometheus exposition).  The harness collects
	// span trees for its trace-derived figures either way: with a nil
	// Observer it uses a private one.
	Observer *obs.Observer
	// ChaosRate, when positive, injects seeded faults into the temp-folder
	// protocol at this per-operation rate, so the cost of the recovery
	// machinery (retries, quarantine) can be benchmarked alongside the
	// healthy path.  Chaos runs keep their timings but are excluded from
	// none of the tables — interpret them as degraded-mode measurements.
	ChaosRate float64
	// ChaosSeed drives the injector; the same seed reproduces the same
	// fault sequence run over run.
	ChaosSeed int64
	// Cache selects the caching layers of every pipeline run (the -cache
	// flag).  The zero value keeps the in-process memo; CacheOff is the
	// cached-vs-uncached ablation endpoint; CachePersistent adds the
	// content-addressed action cache (the cold-vs-warm ablation endpoint).
	// On-disk outputs are byte-identical in every mode; only decode/copy
	// work changes.
	Cache pipeline.CacheConfig
	// Storage selects the pipeline's storage backend for every run: the
	// zero value (or "fs") is the plain filesystem, "mem" keeps inter-stage
	// file bytes in memory and materializes only the final event products.
	// Outputs are byte-identical across backends; only I/O work differs.
	Storage storage.Backend
	// Streaming enables the streaming execution plane for measured runs of
	// the Pipelined variant (the only variant that supports it; the others
	// run materialized as always).  Outputs are byte-identical; only how
	// bytes move between the hot stages changes.
	Streaming bool
}

// PaperProcessors is the core count of the paper's experimental platform
// (12th Gen Intel Core i5-12450H: 8 cores).
const PaperProcessors = 8

// resolveSimProcessors applies the auto rule described on
// Config.SimProcessors.
func resolveSimProcessors(v int) int {
	switch {
	case v > 0:
		return v
	case v < 0:
		return 0
	case runtime.NumCPU() < PaperProcessors:
		return PaperProcessors
	default:
		return 0
	}
}

// ShapePeriods is the period-grid size used by the legacy-shape stage IX
// workload.  With the Duhamel O(D²) method at ReferenceScale it reproduces
// the paper's profile, where the response-spectrum stage dominates the
// sequential runtime (57.2% in the paper's Figure 11).
const ShapePeriods = 8

// ReferenceScale is the workload scale at which the legacy-shape defaults
// reproduce the paper's stage-share profile.  The Go substrates are faster
// than the legacy Fortran-and-gnuplot chain by different factors per stage,
// so running the paper's exact data-point counts would over-weight the
// O(D²) response stage; at this scale the measured stage shares match the
// paper's (see EXPERIMENTS.md).
const ReferenceScale = 0.16

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Response.Periods == nil && c.Response.Damping == 0 {
		c.Response = response.Config{
			Method:  response.Duhamel,
			Periods: response.LogPeriods(0.05, 10, ShapePeriods),
		}
	}
	if c.Events == nil {
		c.Events = synth.PaperEvents()
	}
	if c.Variants == nil {
		c.Variants = pipeline.Variants[:]
	}
	if c.WorkRoot == "" {
		c.WorkRoot = os.TempDir()
	}
	if c.Repeat <= 0 {
		c.Repeat = 1
	}
	return c
}

// EventResult reports one event processed by every variant.
type EventResult struct {
	Spec    synth.EventSpec // the (possibly scaled) spec that was run
	Files   int
	Points  int
	Times   map[pipeline.Variant]time.Duration
	Timings map[pipeline.Variant]pipeline.Timings
	// Traces holds the span tree of the kept (fastest) repetition of each
	// variant.  The Figure 11 stage rows are derived from these records
	// rather than from separate timers, so the published figures and the
	// trace files describe the same measurement.
	Traces map[pipeline.Variant][]obs.SpanRecord
	// StorageBytesPeak is the largest in-memory residency any run of this
	// event reached; always 0 on the fs backend.
	StorageBytesPeak int64
	// Cache sums the cache counters of every measured run of this event
	// (all repetitions and variants), the report's evidence of which
	// caching layers were actually exercised.
	Cache pipeline.CacheStats
	// Quarantined sums the records the retry engine gave up on across every
	// measured run of this event; non-zero only under chaos injection.  The
	// CLI maps a non-zero total to exit code 3 (completed with losses).
	Quarantined int64
}

// Speedup is the paper's headline metric: sequential-original time over
// fully-parallelized time.
func (r EventResult) Speedup() float64 {
	seq, okS := r.Times[pipeline.SeqOriginal]
	par, okP := r.Times[pipeline.FullParallel]
	if !okS || !okP || par <= 0 {
		return 0
	}
	return seq.Seconds() / par.Seconds()
}

// PointsPerSecond is the fully-parallelized throughput (Figure 13's green
// series).
func (r EventResult) PointsPerSecond() float64 {
	par, ok := r.Times[pipeline.FullParallel]
	if !ok || par <= 0 {
		return 0
	}
	return float64(r.Points) / par.Seconds()
}

// SeqPointsPerSecond is the sequential-original throughput (the paper
// reports ~800 points/s).
func (r EventResult) SeqPointsPerSecond() float64 {
	seq, ok := r.Times[pipeline.SeqOriginal]
	if !ok || seq <= 0 {
		return 0
	}
	return float64(r.Points) / seq.Seconds()
}

// RunEvent generates the event at the configured scale and runs every
// configured variant on a fresh work directory.  ctx cancellation aborts
// the in-flight pipeline run and returns its error.
func RunEvent(ctx context.Context, spec synth.EventSpec, cfg Config) (EventResult, error) {
	cfg = cfg.withDefaults()
	scaled := spec.Scale(cfg.Scale)
	ev, err := synth.Event(scaled)
	if err != nil {
		return EventResult{}, err
	}
	res := EventResult{
		Spec:    scaled,
		Files:   scaled.Files,
		Points:  ev.TotalDataPoints(),
		Times:   make(map[pipeline.Variant]time.Duration, len(cfg.Variants)),
		Timings: make(map[pipeline.Variant]pipeline.Timings, len(cfg.Variants)),
		Traces:  make(map[pipeline.Variant][]obs.SpanRecord, len(cfg.Variants)),
	}
	// Every run reports into an observer so figures can be derived from
	// span trees; a user-supplied observer is tapped with a temporary
	// per-harness collector, a nil one replaced by a private observer.
	o := cfg.Observer
	if o == nil {
		o = obs.New()
	}
	col := &obs.Collector{}
	o.AddSink(col)
	defer o.RemoveSink(col)
	opts := pipeline.Options{
		Workers:       cfg.Workers,
		Response:      cfg.Response,
		SimProcessors: resolveSimProcessors(cfg.SimProcessors),
		Observer:      o,
		Storage:       cfg.Storage,
	}
	if cfg.ChaosRate > 0 {
		opts.Chaos = &faults.Config{Seed: cfg.ChaosSeed, Rate: cfg.ChaosRate}
		opts.Retry = pipeline.RetryPolicy{JitterSeed: cfg.ChaosSeed}
	}
	// Repetitions run in rounds across the variants (v1 v2 ... v1 v2 ...)
	// so slow phases of the host hit every variant with equal probability;
	// the fastest repetition per variant is kept.
	for rep := 0; rep < cfg.Repeat; rep++ {
		for _, v := range cfg.Variants {
			// Streaming applies only to the dataflow variant.
			opts.Streaming = cfg.Streaming && v == pipeline.Pipelined
			opts.Cache = cacheFor(cfg.Cache, v)
			// Start every measurement from a clean heap so GC pressure
			// accumulated by earlier variants cannot bias later ones.
			runtime.GC()
			dir, err := os.MkdirTemp(cfg.WorkRoot, "accelproc-bench-*")
			if err != nil {
				return EventResult{}, err
			}
			if err := pipeline.PrepareWorkDir(dir, ev); err != nil {
				os.RemoveAll(dir)
				return EventResult{}, err
			}
			col.Drain() // isolate this run's spans
			run, err := pipeline.Run(ctx, dir, v, opts)
			trace := col.Drain()
			os.RemoveAll(dir)
			if err != nil {
				return EventResult{}, fmt.Errorf("bench: event %s variant %v: %w", spec.Name, v, err)
			}
			// Keep the fastest repetition, and its span tree with it.
			if prev, ok := res.Times[v]; !ok || run.Timings.Total < prev {
				res.Times[v] = run.Timings.Total
				res.Timings[v] = run.Timings
				res.Traces[v] = trace
			}
			if run.StorageBytesPeak > res.StorageBytesPeak {
				res.StorageBytesPeak = run.StorageBytesPeak
			}
			res.Cache.Accumulate(run.Cache)
			res.Quarantined += int64(len(run.Quarantined))
		}
	}
	return res, nil
}

// cacheFor is the cache configuration a run of variant v gets: the
// persistent action cache serves Pipelined's record nodes only, so the
// staged variants keep the memo layer in its place.
func cacheFor(c pipeline.CacheConfig, v pipeline.Variant) pipeline.CacheConfig {
	if c.Mode == pipeline.CachePersistent && v != pipeline.Pipelined {
		return pipeline.CacheConfig{}
	}
	return c
}

// RunTable1 processes every configured event with every variant — the
// experiment behind Table I, Figure 12, and Figure 13.
func RunTable1(ctx context.Context, cfg Config, progress func(string)) ([]EventResult, error) {
	cfg = cfg.withDefaults()
	results := make([]EventResult, 0, len(cfg.Events))
	for _, spec := range cfg.Events {
		if progress != nil {
			progress(fmt.Sprintf("event %s (%d files, %d points at scale %g)",
				spec.Name, spec.Files, spec.TotalPoints, cfg.Scale))
		}
		r, err := RunEvent(ctx, spec, cfg)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// StageResult is one row of the Figure 11 experiment: a stage's sequential
// and fully-parallel execution times.
type StageResult struct {
	Stage      pipeline.StageID
	Sequential time.Duration
	Parallel   time.Duration
}

// Speedup returns the stage's sequential/parallel ratio.
func (s StageResult) Speedup() float64 {
	if s.Parallel <= 0 {
		return 0
	}
	return s.Sequential.Seconds() / s.Parallel.Seconds()
}

// Fig11Result is the per-stage experiment on one event (the paper uses the
// largest event: 19 files, 384K points).
type Fig11Result struct {
	Event  EventResult
	Stages []StageResult
}

// SeqStageShare returns the fraction of the sequential-original runtime
// spent in the given stage (the paper reports 57.2% for stage IX).
func (f Fig11Result) SeqStageShare(id pipeline.StageID) float64 {
	total := f.Event.Times[pipeline.SeqOriginal].Seconds()
	if total <= 0 {
		return 0
	}
	for _, s := range f.Stages {
		if s.Stage == id {
			return s.Sequential.Seconds() / total
		}
	}
	return 0
}

// StageDurations folds a run's span tree into per-stage charged durations:
// the sum of every stage span's Duration, indexed by StageID.  Sequential
// runs open one stage span per process, so summing reproduces the
// accumulation semantics of Timings.Stage.
func StageDurations(trace []obs.SpanRecord) [pipeline.NumStages + 1]time.Duration {
	var out [pipeline.NumStages + 1]time.Duration
	for _, rec := range trace {
		if rec.Kind != obs.KindStage {
			continue
		}
		id, ok := rec.IntAttr("stage")
		if !ok || id < 1 || id > pipeline.NumStages {
			continue
		}
		out[id] += rec.Duration
	}
	return out
}

// RunFig11 runs the per-stage experiment on the given event spec (the
// paper's choice is the largest event, PaperEvents()[5]).  The stage rows
// are derived from the runs' span trees, not from separate timers: the
// figure is a view over the same trace a -trace flag would write.
func RunFig11(ctx context.Context, spec synth.EventSpec, cfg Config) (Fig11Result, error) {
	cfg = cfg.withDefaults()
	cfg.Variants = []pipeline.Variant{pipeline.SeqOriginal, pipeline.FullParallel}
	ev, err := RunEvent(ctx, spec, cfg)
	if err != nil {
		return Fig11Result{}, err
	}
	seq := StageDurations(ev.Traces[pipeline.SeqOriginal])
	par := StageDurations(ev.Traces[pipeline.FullParallel])
	out := Fig11Result{Event: ev}
	for _, st := range pipeline.Stages {
		out.Stages = append(out.Stages, StageResult{
			Stage:      st.ID,
			Sequential: seq[st.ID],
			Parallel:   par[st.ID],
		})
	}
	return out, nil
}

// workRootCheck verifies the configured work root exists and is writable
// (failure injection hook for tests).
func workRootCheck(root string) error {
	probe := filepath.Join(root, ".accelproc-probe")
	if err := os.WriteFile(probe, []byte("x"), 0o644); err != nil {
		return fmt.Errorf("bench: work root %s not writable: %w", root, err)
	}
	return os.Remove(probe)
}

// Validate checks the configuration before a long run.
func (c Config) Validate() error {
	cc := c.withDefaults()
	if cc.Scale <= 0 {
		return fmt.Errorf("bench: scale %g must be positive", cc.Scale)
	}
	if cc.ChaosRate < 0 || cc.ChaosRate > 1 {
		return fmt.Errorf("bench: chaos rate %g out of range [0,1]", cc.ChaosRate)
	}
	if _, err := storage.ParseBackend(string(cc.Storage)); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	for _, spec := range cc.Events {
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	return workRootCheck(cc.WorkRoot)
}
