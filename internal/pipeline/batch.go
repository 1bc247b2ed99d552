package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"accelproc/internal/obs"
	"accelproc/internal/parallel"
)

// BatchResult pairs one work directory with its run outcome.
type BatchResult struct {
	Dir    string
	Result Result
	Err    error
	// Wait and Latency are fleet-mode scheduling times (see RunFleet): how
	// long the event sat in the arrival queue before admission, and its
	// admission-to-done latency.  Both are zero under RunBatch, which has no
	// admission control.
	Wait    time.Duration
	Latency time.Duration
}

// RunBatch processes several event work directories with the same variant,
// running up to opts.EventWorkers pipelines concurrently (0 = all
// processors).  This is the paper's future-work direction — "scaling our
// approach to larger experimental accelerographic datasets" — realized as
// one level of outer parallelism above the per-event pipeline.
//
// Every directory is attempted; per-directory failures are reported in the
// corresponding BatchResult rather than aborting the batch, and one error is
// also returned for convenience: the first *real* cause in directory order,
// with cancellation errors displaced by genuine failures (the parallel
// package's selection rule).  Results are ordered like dirs and every entry
// is populated even on a canceled batch.  Cancelling ctx drains rather than
// aborts: in-flight event runs fail fast internally (cleaning up their
// scratch folders) and the remaining directories still run, each returning
// the context's cause immediately.
//
// When opts.Observer is set, the batch reports one "batch" root span with a
// per-event run span tree nested under it.
//
// Note on the simulated platform: opts.SimProcessors models the parallelism
// *inside* one event's pipeline.  Outer event-level concurrency uses real
// goroutines in every mode, so batch throughput reflects the host, while
// per-event timings remain simulated.
func RunBatch(ctx context.Context, dirs []string, variant Variant, opts Options) ([]BatchResult, error) {
	if err := opts.Validate(variant); err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("pipeline: empty batch")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Reject duplicate directories up front: two concurrent runs in one
	// directory would race on every product file.
	seen := make(map[string]bool, len(dirs))
	for _, d := range dirs {
		if seen[d] {
			return nil, fmt.Errorf("pipeline: directory %s appears twice in the batch", d)
		}
		seen[d] = true
	}
	batchSpan := opts.ParentSpan.Child("batch:"+variant.String(), obs.KindRun,
		obs.Int("events", int64(len(dirs))))
	if batchSpan == nil {
		batchSpan = opts.Observer.Root("batch:"+variant.String(), obs.KindRun,
			obs.Int("events", int64(len(dirs))))
	}
	eventOpts := opts
	eventOpts.ParentSpan = batchSpan
	results := make([]BatchResult, len(dirs))
	var mu sync.Mutex
	mon := obs.NewWorkerMonitor(opts.Observer, "batch")
	var bmon parallel.Monitor
	if mon != nil {
		bmon = mon
	}
	_ = parallel.ParallelForMonitored(len(dirs), opts.EventWorkers, parallel.ScheduleDynamic, 1, bmon, func(i int) error {
		res, err := Run(ctx, dirs[i], variant, eventOpts)
		mu.Lock()
		results[i] = BatchResult{Dir: dirs[i], Result: res, Err: err}
		mu.Unlock()
		return nil
	})
	batchSpan.End()
	return results, batchFirstError(results)
}

// batchFirstError selects the batch-level convenience error from per-event
// outcomes: a real failure displaces the cancellations it (or the caller)
// triggered, and within a class the earliest directory wins, so a canceled
// batch deterministically reports its cause.
func batchFirstError(results []BatchResult) error {
	var first parallel.FirstCause
	for i, r := range results {
		first.Offer(i, r.Err)
	}
	if err := first.Err(); err != nil {
		return fmt.Errorf("pipeline: batch directory %s: %w", results[first.Index()].Dir, err)
	}
	return nil
}

// Report aggregates the outcomes of a batch run: how many events succeeded
// outright, how many failed, and which individual records were quarantined
// inside otherwise-successful events — the graceful-degradation middle
// ground between those two.
type Report struct {
	// Events is the batch size, Succeeded/Failed its event-level split.
	Events    int
	Succeeded int
	Failed    int
	// Quarantined lists every record given up on across the batch, in
	// event order (stations sorted within each event).
	Quarantined []RecordOutcome
	// Retries and FaultsInjected total the per-event counts.
	Retries        int64
	FaultsInjected int64
	// Err joins (errors.Join) every event-level error and every
	// quarantined record's StageError, so errors.Is/As can match any
	// individual failure through the aggregate.  Nil when the batch was
	// fully healthy.
	Err error
}

// Degraded reports whether the batch completed with losses: no failed
// events, but at least one quarantined record.
func (r Report) Degraded() bool { return r.Failed == 0 && len(r.Quarantined) > 0 }

// String summarizes the report in one line for CLI output.
func (r Report) String() string {
	return fmt.Sprintf("events %d (ok %d, failed %d), records quarantined %d, retries %d, faults injected %d",
		r.Events, r.Succeeded, r.Failed, len(r.Quarantined), r.Retries, r.FaultsInjected)
}

// BatchReport folds RunBatch results into a Report.
func BatchReport(results []BatchResult) Report {
	rep := Report{Events: len(results)}
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			rep.Failed++
			errs = append(errs, fmt.Errorf("pipeline: event %s: %w", r.Dir, r.Err))
		} else {
			rep.Succeeded++
		}
		rep.Quarantined = append(rep.Quarantined, r.Result.Quarantined...)
		rep.Retries += r.Result.Retries
		rep.FaultsInjected += r.Result.FaultsInjected
		for _, q := range r.Result.Quarantined {
			errs = append(errs, q.Err)
		}
	}
	rep.Err = errors.Join(errs...)
	return rep
}

// BatchStations aggregates the station codes processed across a batch,
// sorted and de-duplicated — the event-catalog view of a batch run.
func BatchStations(results []BatchResult) []string {
	set := make(map[string]bool)
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		for _, st := range r.Result.Stations {
			set[st] = true
		}
	}
	out := make([]string, 0, len(set))
	for st := range set {
		out = append(out, st)
	}
	sort.Strings(out)
	return out
}
