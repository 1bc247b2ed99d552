package pipeline

import (
	"context"
	"fmt"
	"time"

	"accelproc/internal/obs"
)

// Run executes one variant of the pipeline on the work directory and
// returns its result with per-process and per-stage timings.  The directory
// must contain the multiplexed <station>.v1 input files; every product of
// the chain is written next to them.
//
// ctx cancellation aborts the run between processes and inside parallel
// chunks; the returned error is then the context's cause.  When
// opts.Observer is set, the run reports a span tree rooted at a "run" span
// (nested under opts.ParentSpan if given) whose charged durations match the
// returned Timings.
func Run(ctx context.Context, dir string, variant Variant, opts Options) (Result, error) {
	if err := opts.Validate(variant); err != nil {
		return Result{}, err
	}
	s, err := newState(ctx, dir, opts)
	if err != nil {
		return Result{}, err
	}
	defer func() {
		// Flush the chaos tally into the observer and release the run's
		// cancel-cause context (a no-op if fail-fast already fired).
		s.faultsCtr.Add(float64(s.chaos.Injected()))
		s.fail(nil)
	}()
	if opts.ParentSpan != nil {
		s.runSpan = opts.ParentSpan.Child("run:"+variant.String(), obs.KindRun,
			obs.String("variant", variant.String()), obs.String("dir", dir))
	} else {
		s.runSpan = opts.Observer.Root("run:"+variant.String(), obs.KindRun,
			obs.String("variant", variant.String()), obs.String("dir", dir))
	}
	// Open (and under -resume, replay) the write-ahead journal before the
	// clock starts: replay and the stale-scratch sweep are recovery work,
	// not pipeline work.
	s.initJournal(variant)
	start := s.now()
	switch variant {
	case SeqOriginal, SeqOptimized, PartialParallel, FullParallel:
		err = s.runPlan(variant)
	case Pipelined:
		err = s.runPipelined()
	default:
		return Result{}, fmt.Errorf("pipeline: unknown variant %d", int(variant))
	}
	return s.finishRun(variant, start, err)
}

// finishRun completes a run after its variant body returned: materialize the
// workspace, close the journal, fold the virtual clock into the total, and
// assemble the Result.  Shared by Run and the fleet scheduler, whose
// per-event Finish phase ends here on a pool worker.
func (s *state) finishRun(variant Variant, start time.Duration, err error) (Result, error) {
	var stations []string
	if err == nil {
		// The epilogue gets its own span under the run span, so the run's
		// children cover all of its time.
		err = s.timedTask(s.runSpan, "finalize", func() error {
			if err := s.quarantineProducts(); err != nil {
				return err
			}
			// Flush the storage backend's in-memory state (a no-op on the fs
			// backend) so the work directory holds the complete,
			// byte-identical event products.  Charged inside the total:
			// materialization is part of what the mem backend costs, and the
			// disk-vs-memory ablation must not credit it for deferring the
			// writes.
			if err := s.ws.Materialize(s.dir); err != nil {
				return err
			}
			// The run is durably complete: mark the journal finished so a
			// later -resume knows there is nothing to replay.
			s.journal.finish()
			live, err := s.stations()
			stations = live
			return err
		})
	}
	// On the simulated platform s.virt carries the (negative) difference
	// between serial execution and the simulated parallel makespans.
	total := (s.now() - start) + s.virt
	if err != nil {
		s.runSpan.EndCharged(total, obs.String("error", err.Error()))
		return Result{}, err
	}
	s.tim.Total = total
	// One corrected component record per (station, component) pair; only
	// surviving stations count — quarantined ones are reported separately.
	s.records.Add(float64(3 * len(stations)))
	resident, peak := s.ws.ResidentBytes()
	memoPeak := s.arts.PeakBytes()
	if o := s.opts.Observer; o != nil {
		o.Gauge("storage_bytes_resident").Set(float64(resident))
		o.Gauge("storage_bytes_resident_peak").Set(float64(peak))
		o.Gauge("cache_memo_bytes").Set(float64(memoPeak))
	}
	quarantined := s.quarantinedOutcomes()
	s.runSpan.EndCharged(total, obs.Int("stations", int64(len(stations))),
		obs.Int("quarantined", int64(len(quarantined))))
	var cs CacheStats
	cs.MemoHits, cs.MemoMisses = s.arts.Counts()
	cs.MemoPeakBytes = memoPeak
	cs.ActionHits, cs.ActionMisses, cs.ActionEvictions = s.acache.Counts()
	cs.ActionBytes = s.acache.Bytes()
	return Result{
		Variant:          variant,
		Stations:         stations,
		Timings:          s.tim,
		Quarantined:      quarantined,
		Retries:          s.nRetries.Load(),
		FaultsInjected:   int64(s.chaos.Injected()),
		StorageBytesPeak: peak,
		Cache:            cs,
		Resume:           s.resumeSnapshot(),
	}, nil
}
