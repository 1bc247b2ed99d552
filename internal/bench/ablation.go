package bench

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"accelproc/internal/pipeline"
	"accelproc/internal/response"
	"accelproc/internal/storage"
	"accelproc/internal/synth"
)

// AblationResults collects the design-choice experiments of DESIGN.md §6 on
// one event.
type AblationResults struct {
	Event synth.EventSpec

	// Temp-folder protocol vs direct parallel loops: total time of stages
	// IV+V+VIII under each strategy.
	TempFolderStages time.Duration
	DirectLoopStages time.Duration

	// Legacy Duhamel vs Nigam-Jennings: full-parallel pipeline total with
	// each stage IX method (same period grid).
	DuhamelTotal       time.Duration
	NigamJenningsTotal time.Duration

	// Simulated processor sweep: full-parallel total per processor count.
	ThreadSweep map[int]time.Duration

	// Content-addressed artifact cache on vs off: full-parallel pipeline
	// total with and without the write-through store (outputs are
	// byte-identical; only redundant decode/copy work differs).
	CachedTotal   time.Duration
	UncachedTotal time.Duration

	// Storage backend: full-parallel pipeline total with inter-stage files
	// on the plain filesystem vs held in memory (outputs byte-identical;
	// the mem run still pays for materializing the final products).
	// MemPeakBytes is the mem run's peak residency.
	DiskTotal    time.Duration
	MemTotal     time.Duration
	MemPeakBytes int64

	// Persistent action cache, cold vs warm: Pipelined total on a pristine
	// work directory populating <dir>/.smcache, then again after
	// CleanOutputs against the surviving cache — a restart in which every
	// per-record node digest hits.  WarmHits is the warm run's action-cache
	// hit count (outputs byte-identical; only recomputation is skipped).
	ColdTotal time.Duration
	WarmTotal time.Duration
	WarmHits  int64

	// Streaming execution plane vs materialized: Pipelined totals and peak
	// residency on the mem backend with and without Options.Streaming
	// (outputs byte-identical; only peak residency and byte movement
	// differ — the full NPTS sweep lives in RunStreamBench).
	MaterializedTotal time.Duration
	MaterializedPeak  int64
	StreamingTotal    time.Duration
	StreamingPeak     int64
}

// RunAblations executes the ablation suite on the given event spec.
func RunAblations(ctx context.Context, spec synth.EventSpec, cfg Config) (AblationResults, error) {
	cfg = cfg.withDefaults()
	scaled := spec.Scale(cfg.Scale)
	ev, err := synth.Event(scaled)
	if err != nil {
		return AblationResults{}, err
	}
	out := AblationResults{Event: scaled, ThreadSweep: map[int]time.Duration{}}

	runOnce := func(opts pipeline.Options) (pipeline.Result, error) {
		dir, err := os.MkdirTemp(cfg.WorkRoot, "accelproc-ablation-*")
		if err != nil {
			return pipeline.Result{}, err
		}
		defer os.RemoveAll(dir)
		if err := pipeline.PrepareWorkDir(dir, ev); err != nil {
			return pipeline.Result{}, err
		}
		return pipeline.Run(ctx, dir, pipeline.FullParallel, opts)
	}
	baseOpts := pipeline.Options{
		Workers:       cfg.Workers,
		Response:      cfg.Response,
		SimProcessors: resolveSimProcessors(cfg.SimProcessors),
		Observer:      cfg.Observer,
		Cache:         cacheFor(cfg.Cache, pipeline.FullParallel),
		Storage:       cfg.Storage,
	}
	stagedSum := func(t pipeline.Timings) time.Duration {
		return t.Stage[pipeline.StageIV] + t.Stage[pipeline.StageV] + t.Stage[pipeline.StageVIII]
	}

	// 1. Temp-folder protocol vs direct loops.
	res, err := runOnce(baseOpts)
	if err != nil {
		return AblationResults{}, fmt.Errorf("bench: temp-folder ablation: %w", err)
	}
	out.TempFolderStages = stagedSum(res.Timings)
	out.DuhamelTotal = res.Timings.Total // base config uses the legacy method

	direct := baseOpts
	direct.NoTempFolders = true
	if res, err = runOnce(direct); err != nil {
		return AblationResults{}, fmt.Errorf("bench: direct-loop ablation: %w", err)
	}
	out.DirectLoopStages = stagedSum(res.Timings)

	// 2. Response-spectrum method.
	nj := baseOpts
	nj.Response = response.Config{Method: response.NigamJennings, Periods: cfg.Response.Periods}
	if res, err = runOnce(nj); err != nil {
		return AblationResults{}, fmt.Errorf("bench: method ablation: %w", err)
	}
	out.NigamJenningsTotal = res.Timings.Total

	// 3. Processor sweep on the simulated platform.
	for _, procs := range []int{1, 2, 4, 8, 16} {
		sw := baseOpts
		sw.SimProcessors = procs
		if res, err = runOnce(sw); err != nil {
			return AblationResults{}, fmt.Errorf("bench: thread sweep %d: %w", procs, err)
		}
		out.ThreadSweep[procs] = res.Timings.Total
	}

	// 4. Artifact cache on vs off.
	if res, err = runOnce(baseOpts); err != nil {
		return AblationResults{}, fmt.Errorf("bench: cached ablation: %w", err)
	}
	out.CachedTotal = res.Timings.Total
	uncached := baseOpts
	uncached.Cache = pipeline.CacheConfig{Mode: pipeline.CacheOff}
	if res, err = runOnce(uncached); err != nil {
		return AblationResults{}, fmt.Errorf("bench: uncached ablation: %w", err)
	}
	out.UncachedTotal = res.Timings.Total

	// 5. Storage backend: plain filesystem vs in-memory workspace.  Both
	// runs force the backend explicitly so the ablation is the same pair
	// whatever cfg.Storage selected for the rest of the suite.
	disk := baseOpts
	disk.Storage = storage.BackendFS
	if res, err = runOnce(disk); err != nil {
		return AblationResults{}, fmt.Errorf("bench: disk-storage ablation: %w", err)
	}
	out.DiskTotal = res.Timings.Total
	mem := baseOpts
	mem.Storage = storage.BackendMem
	if res, err = runOnce(mem); err != nil {
		return AblationResults{}, fmt.Errorf("bench: mem-storage ablation: %w", err)
	}
	out.MemTotal = res.Timings.Total
	out.MemPeakBytes = res.StorageBytesPeak

	// 6. Persistent action cache, cold vs warm.  Unlike the other rows this
	// one reuses a single work directory: the cold Pipelined run populates
	// <dir>/.smcache, CleanOutputs removes every product but keeps the cache
	// (and the .v1 inputs), and the warm run — a fresh pipeline state, i.e.
	// a process restart — restores every per-record node from digests
	// instead of recomputing it.
	persist := baseOpts
	persist.Cache = pipeline.CacheConfig{Mode: pipeline.CachePersistent}
	dir, err := os.MkdirTemp(cfg.WorkRoot, "accelproc-ablation-*")
	if err != nil {
		return AblationResults{}, err
	}
	defer os.RemoveAll(dir)
	if err := pipeline.PrepareWorkDir(dir, ev); err != nil {
		return AblationResults{}, err
	}
	if res, err = pipeline.Run(ctx, dir, pipeline.Pipelined, persist); err != nil {
		return AblationResults{}, fmt.Errorf("bench: cold-cache ablation: %w", err)
	}
	out.ColdTotal = res.Timings.Total
	if err := pipeline.CleanOutputs(dir); err != nil {
		return AblationResults{}, err
	}
	if res, err = pipeline.Run(ctx, dir, pipeline.Pipelined, persist); err != nil {
		return AblationResults{}, fmt.Errorf("bench: warm-cache ablation: %w", err)
	}
	out.WarmTotal = res.Timings.Total
	out.WarmHits = res.Cache.ActionHits

	// 7. Streaming execution plane vs materialized, Pipelined on the mem
	// backend (the backend where peak residency is observable).
	runPipelined := func(opts pipeline.Options) (pipeline.Result, error) {
		dir, err := os.MkdirTemp(cfg.WorkRoot, "accelproc-ablation-*")
		if err != nil {
			return pipeline.Result{}, err
		}
		defer os.RemoveAll(dir)
		if err := pipeline.PrepareWorkDir(dir, ev); err != nil {
			return pipeline.Result{}, err
		}
		return pipeline.Run(ctx, dir, pipeline.Pipelined, opts)
	}
	matl := baseOpts
	matl.Storage = storage.BackendMem
	if res, err = runPipelined(matl); err != nil {
		return AblationResults{}, fmt.Errorf("bench: materialized ablation: %w", err)
	}
	out.MaterializedTotal = res.Timings.Total
	out.MaterializedPeak = res.StorageBytesPeak
	strm := matl
	strm.Streaming = true
	strm.Cache = pipeline.CacheConfig{} // streaming bypasses the action cache either way
	if res, err = runPipelined(strm); err != nil {
		return AblationResults{}, fmt.Errorf("bench: streaming ablation: %w", err)
	}
	out.StreamingTotal = res.Timings.Total
	out.StreamingPeak = res.StorageBytesPeak
	return out, nil
}

// FormatAblations renders the ablation results as a report section.
func FormatAblations(a AblationResults) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ABLATIONS (event %s, %d files, %d points)\n",
		a.Event.Name, a.Event.Files, a.Event.TotalPoints)

	fmt.Fprintf(&b, "temp-folder protocol (stages IV+V+VIII): %.2f s staged vs %.2f s direct loops (overhead %.1f%%)\n",
		a.TempFolderStages.Seconds(), a.DirectLoopStages.Seconds(),
		100*(a.TempFolderStages.Seconds()/a.DirectLoopStages.Seconds()-1))

	fmt.Fprintf(&b, "stage IX method: %.2f s pipeline with Duhamel vs %.2f s with Nigam-Jennings (%.1fx total)\n",
		a.DuhamelTotal.Seconds(), a.NigamJenningsTotal.Seconds(),
		a.DuhamelTotal.Seconds()/a.NigamJenningsTotal.Seconds())

	if a.CachedTotal > 0 && a.UncachedTotal > 0 {
		fmt.Fprintf(&b, "artifact cache: %.2f s cached vs %.2f s uncached (%.1f%% saved)\n",
			a.CachedTotal.Seconds(), a.UncachedTotal.Seconds(),
			100*(1-a.CachedTotal.Seconds()/a.UncachedTotal.Seconds()))
	}

	if a.DiskTotal > 0 && a.MemTotal > 0 {
		fmt.Fprintf(&b, "storage backend: %.2f s on disk vs %.2f s in memory (%.1f%% saved, peak residency %.1f MiB)\n",
			a.DiskTotal.Seconds(), a.MemTotal.Seconds(),
			100*(1-a.MemTotal.Seconds()/a.DiskTotal.Seconds()),
			float64(a.MemPeakBytes)/(1<<20))
	}

	if a.ColdTotal > 0 && a.WarmTotal > 0 {
		fmt.Fprintf(&b, "persistent action cache: %.2f s cold vs %.2f s warm restart (%.1f%% saved, %d action hits)\n",
			a.ColdTotal.Seconds(), a.WarmTotal.Seconds(),
			100*(1-a.WarmTotal.Seconds()/a.ColdTotal.Seconds()), a.WarmHits)
	}

	if a.MaterializedTotal > 0 && a.StreamingTotal > 0 {
		fmt.Fprintf(&b, "streaming plane (pipelined, mem backend): %.2f s materialized (peak %.1f MiB) vs %.2f s streaming (peak %.1f KiB)\n",
			a.MaterializedTotal.Seconds(), float64(a.MaterializedPeak)/(1<<20),
			a.StreamingTotal.Seconds(), float64(a.StreamingPeak)/1024)
	}

	fmt.Fprintln(&b, "processor sweep (fully parallelized, simulated platform):")
	base := a.ThreadSweep[1]
	for _, procs := range []int{1, 2, 4, 8, 16} {
		d, ok := a.ThreadSweep[procs]
		if !ok || d <= 0 {
			continue
		}
		fmt.Fprintf(&b, "  %2d processors: %7.2f s  (%.2fx)\n", procs, d.Seconds(), base.Seconds()/d.Seconds())
	}
	return b.String()
}
