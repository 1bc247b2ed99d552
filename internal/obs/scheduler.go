package obs

import "time"

// SchedulerMonitor bundles the gauges and counters a multi-job scheduler
// exports: ready-queue depth, admission state, and per-job latency.
// dataflow.Run registers one per pool under the "fleet" scope; like every
// obs type it is nil-safe, so instrumentation costs nothing when no
// observer is attached.
//
// Metrics registered under the given scope:
//
//	<scope>_queue_depth             gauge     — ready tasks awaiting a worker
//	<scope>_events_open             gauge     — jobs admitted and not yet done
//	<scope>_events_waiting          gauge     — jobs enqueued, not yet admitted
//	<scope>_events_admitted_total   counter   — admission-control passes
//	<scope>_events_completed_total  counter   — jobs fully drained
//	<scope>_event_latency_seconds   histogram — admission-to-done latency
//
// plus the <scope>_worker_* occupancy family via the embedded WorkerMonitor.
type SchedulerMonitor struct {
	depth     *Gauge
	open      *Gauge
	waiting   *Gauge
	admitted  *Counter
	completed *Counter
	latency   *Histogram
	workers   *WorkerMonitor
}

// NewSchedulerMonitor registers the scheduler metrics under scope.  A nil
// observer yields a nil monitor; every method tolerates the nil receiver.
func NewSchedulerMonitor(o *Observer, scope string) *SchedulerMonitor {
	if o == nil {
		return nil
	}
	return &SchedulerMonitor{
		depth:     o.Gauge(scope + "_queue_depth"),
		open:      o.Gauge(scope + "_events_open"),
		waiting:   o.Gauge(scope + "_events_waiting"),
		admitted:  o.Counter(scope + "_events_admitted_total"),
		completed: o.Counter(scope + "_events_completed_total"),
		latency:   o.Histogram(scope+"_event_latency_seconds", nil),
		workers:   NewWorkerMonitor(o, scope),
	}
}

// QueueDepth records the current number of ready tasks awaiting a worker.
func (m *SchedulerMonitor) QueueDepth(n int) {
	if m == nil {
		return
	}
	m.depth.Set(float64(n))
}

// Admission records the admission-control state: jobs currently open (past
// admission, not yet complete) and jobs still waiting in the arrival queue.
func (m *SchedulerMonitor) Admission(open, waiting int) {
	if m == nil {
		return
	}
	m.open.Set(float64(open))
	m.waiting.Set(float64(waiting))
}

// Admitted counts one job passing admission control.
func (m *SchedulerMonitor) Admitted() {
	if m == nil {
		return
	}
	m.admitted.Add(1)
}

// Completed records one job fully drained, with its admission-to-done
// latency.
func (m *SchedulerMonitor) Completed(latency time.Duration) {
	if m == nil {
		return
	}
	m.completed.Add(1)
	m.latency.Observe(latency.Seconds())
}

// Workers returns the embedded worker-occupancy monitor (nil when the
// scheduler monitor is nil, which downstream code already tolerates).
func (m *SchedulerMonitor) Workers() *WorkerMonitor {
	if m == nil {
		return nil
	}
	return m.workers
}
