package parallel

import "time"

// Monitor observes worker activity inside the parallel primitives, feeding
// the observability layer's occupancy metrics (busy vs idle time is the
// paper's practical measure of how well a stage's iterations balance).
//
// WorkerSpan is called once per worker when a construct finishes: busy is
// the time the worker spent executing bodies, idle the remainder of its
// participation (startup, or waiting at the join barrier behind slower
// workers), and tasks the number of iterations it executed.  Implementations must be safe for
// concurrent use; obs.WorkerMonitor satisfies this interface.
type Monitor interface {
	WorkerSpan(worker int, busy, idle time.Duration, tasks int)
}

// monitoredBody wraps body so each call's duration accumulates into *busy
// and *tasks.  Only used when a Monitor is attached, so the unobserved hot
// path pays no timing overhead.
func monitoredBody(body func(i int) error, busy *time.Duration, tasks *int) func(i int) error {
	return func(i int) error {
		t0 := time.Now()
		err := body(i)
		*busy += time.Since(t0)
		*tasks++
		return err
	}
}
