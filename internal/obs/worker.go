package obs

import "time"

// WorkerMonitor aggregates per-worker busy/idle accounting from the
// parallel runtime into observer metrics.  It structurally satisfies
// parallel.Monitor and dataflow.WaitMonitor without obs importing the
// parallel package (obs stays dependency-free).
//
// Metrics registered under the given scope:
//
//	<scope>_worker_busy_seconds_total   counter — time spent executing bodies
//	<scope>_worker_idle_seconds_total   counter — time waiting (load imbalance)
//	<scope>_worker_tasks_total          counter — loop iterations / tasks run
//	<scope>_worker_occupancy            gauge   — busy / (busy + idle), cumulative
//	<scope>_queue_wait_seconds          histogram — submit-to-start latency
type WorkerMonitor struct {
	busy, idle, tasks *Counter
	occupancy         *Gauge
	wait              *Histogram
}

// NewWorkerMonitor registers the occupancy metrics under scope and returns
// the monitor.  A nil observer yields a nil monitor; callers converting it
// to an interface should keep the nil (see pipeline's state.monitor).
func NewWorkerMonitor(o *Observer, scope string) *WorkerMonitor {
	if o == nil {
		return nil
	}
	return &WorkerMonitor{
		busy:      o.Counter(scope + "_worker_busy_seconds_total"),
		idle:      o.Counter(scope + "_worker_idle_seconds_total"),
		tasks:     o.Counter(scope + "_worker_tasks_total"),
		occupancy: o.Gauge(scope + "_worker_occupancy"),
		wait:      o.Histogram(scope+"_queue_wait_seconds", nil),
	}
}

// WorkerSpan records one worker's share of a parallel construct: busy time
// executing bodies, idle time waiting on the construct (imbalance), and the
// number of tasks it ran.
func (m *WorkerMonitor) WorkerSpan(worker int, busy, idle time.Duration, tasks int) {
	if m == nil {
		return
	}
	m.busy.Add(busy.Seconds())
	m.idle.Add(idle.Seconds())
	m.tasks.Add(float64(tasks))
	b, i := m.busy.Value(), m.idle.Value()
	if b+i > 0 {
		m.occupancy.Set(b / (b + i))
	}
}

// TaskWait records the time one task spent queued before starting.
func (m *WorkerMonitor) TaskWait(d time.Duration) {
	if m == nil {
		return
	}
	m.wait.Observe(d.Seconds())
}
