package pipeline

import (
	"context"
	"fmt"
	"time"

	"accelproc/internal/dataflow"
	"accelproc/internal/obs"
)

// FleetOptions configures RunFleet: the usual per-event Options plus the
// fleet scheduler's policy knob and admission cap.
type FleetOptions struct {
	Options
	// Policy selects the dispatch order among ready tasks of admitted
	// events; the zero value is dataflow.Balanced.
	Policy dataflow.Policy
	// Admit caps concurrently-open events; <= 0 selects the policy default
	// (see dataflow.Policy.DefaultAdmit).
	Admit int
}

// RunFleet processes several event work directories through one shared
// dataflow worker pool — one multi-job dataflow.Run — instead of giving
// each event its own pool as RunBatch does.  Every event runs the Pipelined
// variant: its stage-I prologue builds the record-level task graph at
// admission, the merged ready sets drain on opts.Workers shared workers in
// the order opts.Policy dictates, and materialization runs as the event's
// finish phase, all on pool workers.  Stream edges release at dispatch as
// under Run, so with Options.Streaming each stream consumer overlaps its
// producer.  The retry, quarantine, journal, and action-cache planes apply
// per event exactly as under Run; an action-cache hit completes its node in
// microseconds, freeing the worker immediately.
//
// Results are ordered like dirs, with Wait (arrival-queue time before
// admission) and Latency (admission to done) filled in; like RunBatch,
// per-event failures land in the corresponding BatchResult and the first
// real cause is returned as the convenience error.  Cancelling ctx drains:
// every event — admitted or not — still flows through the scheduler, failing
// fast with the context's cause, so every BatchResult is populated.
//
// On the simulated platform (opts.SimProcessors > 0) the events are first
// measured serially, then the fleet schedule runs on a virtual clock
// (dataflow.Simulate) with SimProcessors pool workers; each Result's Total
// reports the event's virtual fleet latency, and outputs remain
// byte-identical to real runs.
func RunFleet(ctx context.Context, dirs []string, opts FleetOptions) ([]BatchResult, error) {
	_, results, err := runFleetDispatch(ctx, dirs, opts)
	return results, err
}

// MeasureFleet processes every directory exactly as RunFleet on the
// simulated platform (opts.SimProcessors must be positive) and additionally
// returns the measured queue: one dataflow.SimJob per healthy directory,
// carrying the event's task graph, serial node durations, and build cost.
// Replaying the returned events through dataflow.Simulate with different
// policies or admission caps reschedules the same measured work without
// re-running it — on the virtual clock, policy deltas computed this way are
// exactly scheduling deltas, free of cross-run measurement noise (the
// comparison internal/bench builds its saturation experiment on).  The
// BatchResults are those of the underlying RunFleet (outputs materialized,
// timings on the opts.Policy schedule).
func MeasureFleet(ctx context.Context, dirs []string, opts FleetOptions) ([]dataflow.SimJob, []BatchResult, error) {
	if opts.SimProcessors <= 0 {
		return nil, nil, fmt.Errorf("pipeline: MeasureFleet requires a simulated platform (SimProcessors > 0)")
	}
	return runFleetDispatch(ctx, dirs, opts)
}

func runFleetDispatch(ctx context.Context, dirs []string, opts FleetOptions) ([]dataflow.SimJob, []BatchResult, error) {
	if err := opts.Validate(Pipelined); err != nil {
		return nil, nil, err
	}
	if len(dirs) == 0 {
		return nil, nil, fmt.Errorf("pipeline: empty batch")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	seen := make(map[string]bool, len(dirs))
	for _, d := range dirs {
		if seen[d] {
			return nil, nil, fmt.Errorf("pipeline: directory %s appears twice in the batch", d)
		}
		seen[d] = true
	}
	fleetSpan := opts.ParentSpan.Child("fleet:pipelined", obs.KindRun,
		obs.Int("events", int64(len(dirs))),
		obs.String("policy", opts.Policy.String()))
	if fleetSpan == nil {
		fleetSpan = opts.Observer.Root("fleet:pipelined", obs.KindRun,
			obs.Int("events", int64(len(dirs))),
			obs.String("policy", opts.Policy.String()))
	}
	eventOpts := opts.Options
	eventOpts.ParentSpan = fleetSpan

	evs := make([]*fleetEvent, len(dirs))
	for i, dir := range dirs {
		evs[i] = &fleetEvent{ctx: ctx, dir: dir, opts: eventOpts}
	}

	if eventOpts.SimProcessors > 0 {
		sims, results, err := runFleetSim(evs, opts)
		fleetSpan.End()
		return sims, results, err
	}

	jobs := make([]dataflow.Job, len(dirs))
	for i, e := range evs {
		jobs[i] = dataflow.Job{Name: e.dir, Build: e.build, Finish: e.finish}
	}
	fres := dataflow.Run(jobs, dataflow.Options{
		Workers:  eventOpts.Workers,
		Admit:    opts.Admit,
		Policy:   opts.Policy,
		Observer: eventOpts.Observer,
	})
	fleetSpan.End()
	results := make([]BatchResult, len(dirs))
	for i, e := range evs {
		results[i] = e.res
		results[i].Dir = e.dir
		results[i].Err = fres[i].Err
		results[i].Wait = fres[i].Wait()
		results[i].Latency = fres[i].Latency()
	}
	return nil, results, batchFirstError(results)
}

// fleetEvent adapts one work directory to the fleet scheduler's
// Build/nodes/Finish phases, carrying the pipeline state across them.
type fleetEvent struct {
	ctx   context.Context
	dir   string
	opts  Options
	s     *state
	b     *stepGraph
	start time.Duration
	res   BatchResult
}

// build is the event's admission phase: create the run state, open the
// journal, and execute the Pipelined prologue, returning the task graph for
// the shared pool.
func (e *fleetEvent) build() (*dataflow.Graph, error) {
	s, err := newState(e.ctx, e.dir, e.opts)
	if err != nil {
		return nil, err
	}
	e.s = s
	s.runSpan = e.opts.ParentSpan.Child("run:pipelined", obs.KindRun,
		obs.String("variant", Pipelined.String()), obs.String("dir", e.dir))
	s.initJournal(Pipelined)
	e.start = s.now()
	b, err := s.preparePipelined()
	if err != nil {
		return nil, err
	}
	e.b = b
	return b.g, nil
}

// finish is the event's completion phase: fold node timings, materialize,
// close the journal, and assemble the Result — the same epilogue Run uses.
func (e *fleetEvent) finish(err error) error {
	if e.s == nil {
		// newState itself failed; there is no run to finalize.
		return err
	}
	if e.b != nil {
		if err == nil {
			e.b.foldTimings()
		}
		e.b.teardown(err)
	}
	res, ferr := e.s.finishRun(Pipelined, e.start, err)
	// The flush Run performs in its defer: chaos tally and cancel-cause
	// release for this event's state.
	e.s.faultsCtr.Add(float64(e.s.chaos.Injected()))
	e.s.fail(nil)
	e.res.Result = res
	// The event is done: drop its run state and graph, memo included, so
	// the fleet does not keep every finished event alive until RunFleet
	// returns.
	e.s, e.b = nil, nil
	return ferr
}

// runFleetSim is RunFleet on the simulated platform: each event's prologue
// and graph execute serially under the CPU clock to measure per-node costs,
// then dataflow.Simulate replays the whole queue on a virtual clock with
// SimProcessors shared workers, and each event's Total becomes its virtual
// fleet latency (plus its real materialization cost, as in Run).
func runFleetSim(evs []*fleetEvent, opts FleetOptions) ([]dataflow.SimJob, []BatchResult, error) {
	type measured struct {
		e         *fleetEvent
		execErr   error
		buildCost time.Duration
	}
	var sims []dataflow.SimJob
	var healthy []measured
	for _, e := range evs {
		g, err := e.build()
		if err != nil {
			e.res.Err = e.finish(err)
			continue
		}
		buildCost := (e.s.now() - e.start) + e.s.virt
		_, execErr := g.Execute(1, nil)
		if execErr != nil {
			e.res.Err = e.finish(execErr)
			continue
		}
		sims = append(sims, dataflow.SimJob{Name: e.dir, Graph: g, Durs: e.b.durs, Build: buildCost})
		healthy = append(healthy, measured{e: e, buildCost: buildCost})
	}
	simRes := dataflow.Simulate(sims, opts.SimProcessors, opts.Admit, opts.Policy)
	for k, m := range healthy {
		e := m.e
		// Rebase the event clock onto the virtual fleet schedule: everything
		// measured so far is replaced by the simulated admission-to-done
		// latency; finishRun then adds the real materialization cost on top,
		// exactly as a plain simulated Run would.
		e.res.Wait = simRes[k].Wait()
		e.res.Latency = simRes[k].Latency()
		e.s.virt = e.res.Latency - (e.s.now() - e.start)
		e.res.Err = e.finish(nil)
	}
	results := make([]BatchResult, len(evs))
	for i, e := range evs {
		results[i] = e.res
		results[i].Dir = e.dir
	}
	return sims, results, batchFirstError(results)
}
