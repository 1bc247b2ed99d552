package pipeline

import (
	"context"
	"fmt"
	"time"

	"accelproc/internal/obs"
	"accelproc/internal/parallel"
	"accelproc/internal/simsched"
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
	if opts.Streaming && variant != Pipelined {
		return Result{}, fmt.Errorf("pipeline: streaming requires the pipelined variant, not %s", variant)
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
		err = s.runStaged(variant)
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
	if o := s.opts.Observer; o != nil {
		o.Gauge("storage_bytes_resident").Set(float64(resident))
		o.Gauge("storage_bytes_resident_peak").Set(float64(peak))
	}
	quarantined := s.quarantinedOutcomes()
	s.runSpan.EndCharged(total, obs.Int("stations", int64(len(stations))),
		obs.Int("quarantined", int64(len(quarantined))))
	var cs CacheStats
	cs.MemoHits, cs.MemoMisses = s.arts.Counts()
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

// runStaged executes a staged variant's plan step by step, with a barrier
// after every step.
func (s *state) runStaged(variant Variant) error {
	for _, st := range planOf(variant) {
		if err := s.runStep(st); err != nil {
			return err
		}
	}
	return nil
}

// runStep runs one plan step inside its stage span: a task stage as an
// OpenMP-style task group, any other stage's processes one after the other.
func (s *state) runStep(st planStep) error {
	run := func() error {
		if st.strat == StratTask {
			return s.runTasks(s.opts.MetaWorkers, st.procs)
		}
		for _, id := range st.procs {
			if err := s.runProcess(id, st.strat); err != nil {
				return err
			}
		}
		return nil
	}
	if st.stage == 0 {
		return run()
	}
	return s.timedStage(st.stage, run)
}

// runTasks runs the given processes as a task group.  On the real platform
// the tasks run as bounded goroutines and the stage time is their joint wall
// time; on the simulated platform they run serially with per-task
// measurement and the stage is charged the task-group makespan.
func (s *state) runTasks(workers int, ids []ProcessID) error {
	if !s.simulated() || workers == 1 {
		fns := make([]func() error, len(ids))
		for i, id := range ids {
			fns[i] = func() error { return s.runProcess(id, StratTask) }
		}
		return parallel.RunTasksMonitored(workers, s.monitor(), fns...)
	}
	durs := make([]time.Duration, len(ids))
	for i, id := range ids {
		before := s.tim.Process[id]
		if err := s.runProcess(id, StratTask); err != nil {
			return err
		}
		durs[i] = s.tim.Process[id] - before
	}
	s.virt += simsched.Makespan(durs, workers, s.opts.ContentionCPU) - simsched.Sum(durs)
	return nil
}

// runProcess runs one process under its process span.
func (s *state) runProcess(id ProcessID, strat Strategy) error {
	return s.timedProc(id, func(sp *obs.Span) error { return s.procBody(sp, id, strat) })
}

// procBody is the body switch every event-global process and every staged
// process runs through.  The strategy sets the worker budget of the
// process's inner loop: 1 unless its stage parallelizes the loop, and for
// #4, #7 and #13 whether the temp-folder protocol runs (unless the
// NoTempFolders ablation replaces it with a direct loop).  Temp-folder steps
// report task spans under sp.
func (s *state) procBody(sp *obs.Span, id ProcessID, strat Strategy) error {
	w := 1
	if strat == StratLoop || strat == StratTempFolder {
		w = s.opts.Workers
	}
	tempFolder := strat == StratTempFolder && !s.opts.NoTempFolders
	switch id {
	case PInitFlags, PInitFlags2:
		return s.procInitFlags()
	case PGatherInputs:
		return s.procGatherInputs()
	case PInitFilterParams:
		return s.procInitFilterParams()
	case PSeparateComponents, PSeparateComps2:
		return s.procSeparateComponents(w)
	case PDefaultFilter, PCorrectedFilter:
		if tempFolder {
			return s.tempFolderStage(sp, id, w)
		}
		return s.applyFilters(w)
	case PInitMetadata, PInitMetadata2:
		return s.procInitMetadata()
	case PPlotUncorrected:
		return s.procPlotUncorrected()
	case PFourier:
		if tempFolder {
			return s.tempFolderStage(sp, id, w)
		}
		return s.procFourier(w)
	case PInitFourierGraph:
		return s.procInitFourierGraph()
	case PPlotFourier:
		return s.procPlotFourier()
	case PPickCorners:
		// The parallel loop of paper §V-B runs over a station's three
		// components, whatever the worker budget.
		if strat == StratLoop {
			w = 3
		}
		return s.procPickCorners(w)
	case PPlotAccel:
		return s.procPlotAccel()
	case PResponseSpectrum:
		return s.procResponseSpectrum(w)
	case PInitResponseGraph:
		return s.procInitResponseGraph()
	case PPlotResponse:
		return s.procPlotResponse()
	case PGenerateGEM:
		return s.procGenerateGEM(w)
	}
	panic(fmt.Sprintf("pipeline: no body for process #%d", id))
}
