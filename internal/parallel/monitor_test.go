package parallel

import (
	"sync"
	"testing"
	"time"
)

// recordingMonitor captures WorkerSpan calls; safe for concurrent use like
// the contract requires.
type recordingMonitor struct {
	mu    sync.Mutex
	spans []workerSpan
}

type workerSpan struct {
	worker     int
	busy, idle time.Duration
	tasks      int
}

func (m *recordingMonitor) WorkerSpan(worker int, busy, idle time.Duration, tasks int) {
	m.mu.Lock()
	m.spans = append(m.spans, workerSpan{worker, busy, idle, tasks})
	m.mu.Unlock()
}

func (m *recordingMonitor) totalTasks() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.spans {
		n += s.tasks
	}
	return n
}

func TestParallelForMonitoredAccountsEveryIteration(t *testing.T) {
	const n, workers = 100, 4
	mon := &recordingMonitor{}
	err := ParallelForMonitored(n, workers, ScheduleStatic, 0, mon, func(i int) error {
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mon.spans) != workers {
		t.Fatalf("worker spans = %d, want %d", len(mon.spans), workers)
	}
	if got := mon.totalTasks(); got != n {
		t.Errorf("tasks = %d, want %d", got, n)
	}
	seen := map[int]bool{}
	for _, s := range mon.spans {
		if s.worker < 0 || s.worker >= workers {
			t.Errorf("worker id %d out of range", s.worker)
		}
		if seen[s.worker] {
			t.Errorf("worker %d reported twice", s.worker)
		}
		seen[s.worker] = true
		if s.busy <= 0 {
			t.Errorf("worker %d busy = %v", s.worker, s.busy)
		}
		if s.idle < 0 {
			t.Errorf("worker %d idle = %v", s.worker, s.idle)
		}
	}
}

func TestParallelForMonitoredSerialPath(t *testing.T) {
	mon := &recordingMonitor{}
	err := ParallelForMonitored(7, 1, ScheduleDynamic, 1, mon, func(i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(mon.spans) != 1 || mon.spans[0].worker != 0 || mon.spans[0].tasks != 7 {
		t.Errorf("serial spans = %+v", mon.spans)
	}
}

func TestParallelForDynamicMonitored(t *testing.T) {
	const n = 64
	mon := &recordingMonitor{}
	err := ParallelForMonitored(n, 3, ScheduleDynamic, 4, mon, func(i int) error {
		time.Sleep(time.Duration(i%5) * 10 * time.Microsecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := mon.totalTasks(); got != n {
		t.Errorf("tasks = %d, want %d", got, n)
	}
}

// TestGuidedScheduleImprovesOccupancyOnSkewedLoads is the straggler-fix
// check: with iteration costs growing along the index range, static blocks
// leave the early workers idling behind the block holding the expensive
// tail, while guided claims shrink toward the tail and rebalance it.  The
// monitored loop must report less aggregate idle time under guided than
// under static scheduling.
func TestGuidedScheduleImprovesOccupancyOnSkewedLoads(t *testing.T) {
	const n, workers = 32, 4
	body := func(i int) error {
		// Cost grows with the index: the last static block costs ~4x the
		// first, mimicking stage-IX records sorted small to large.
		time.Sleep(time.Duration(i/8+1) * 2 * time.Millisecond)
		return nil
	}
	run := func(sched Schedule) (busy, idle time.Duration) {
		mon := &recordingMonitor{}
		if err := ParallelForMonitored(n, workers, sched, 1, mon, body); err != nil {
			t.Fatal(err)
		}
		mon.mu.Lock()
		defer mon.mu.Unlock()
		for _, s := range mon.spans {
			busy += s.busy
			idle += s.idle
		}
		return busy, idle
	}
	staticBusy, staticIdle := run(ScheduleStatic)
	guidedBusy, guidedIdle := run(ScheduleGuided)
	staticOcc := float64(staticBusy) / float64(staticBusy+staticIdle)
	guidedOcc := float64(guidedBusy) / float64(guidedBusy+guidedIdle)
	if guidedOcc <= staticOcc {
		t.Errorf("guided occupancy %.3f not better than static %.3f (idle %v vs %v)",
			guidedOcc, staticOcc, guidedIdle, staticIdle)
	}
}
