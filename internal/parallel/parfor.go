package parallel

import (
	"sync"
	"sync/atomic"
	"time"
)

// ParallelFor runs body(i) for every i in [0, n) using the given number of
// workers (0 means all processors) with static scheduling.  It is the Go
// equivalent of
//
//	#pragma omp parallel for
//	for (int i = 0; i < n; i++) body(i);
//
// The call returns after every iteration has completed.  If any body call
// returns a non-nil error, ParallelFor returns the error of the smallest
// failing index; all iterations still run (matching the OpenMP model, where
// a loop cannot break early).
func ParallelFor(n, workers int, body func(i int) error) error {
	return parallelFor(n, workers, ScheduleStatic, 0, nil, body)
}

// ParallelForDynamic runs body(i) for every i in [0, n) with dynamic
// scheduling: workers pull chunkSize iterations at a time from a shared
// counter.  A chunkSize <= 0 selects chunk size 1, like schedule(dynamic).
func ParallelForDynamic(n, workers, chunkSize int, body func(i int) error) error {
	return parallelFor(n, workers, ScheduleDynamic, chunkSize, nil, body)
}

// ParallelForMonitored is ParallelFor with an explicit schedule and a
// Monitor receiving per-worker busy/idle accounting.  A nil mon is the
// uninstrumented loop.
func ParallelForMonitored(n, workers int, sched Schedule, chunkSize int, mon Monitor, body func(i int) error) error {
	return parallelFor(n, workers, sched, chunkSize, mon, body)
}

func parallelFor(n, workers int, sched Schedule, chunkSize int, mon Monitor, body func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		if mon == nil {
			return serialFor(n, body)
		}
		var busy time.Duration
		var tasks int
		start := time.Now()
		err := serialFor(n, monitoredBody(body, &busy, &tasks))
		mon.WorkerSpan(0, busy, time.Since(start)-busy, tasks)
		return err
	}

	// Per-worker accounting: each worker accumulates its own busy time and
	// task count (no sharing, no atomics on the hot path); idle is charged
	// after the join barrier as the construct's wall time minus busy, i.e.
	// the time the construct held the worker while it had nothing to run.
	var (
		busies  []time.Duration
		counts  []int
		started time.Time
	)
	wrap := func(t int, body func(int) error) func(int) error { return body }
	if mon != nil {
		busies = make([]time.Duration, w)
		counts = make([]int, w)
		started = time.Now()
		wrap = func(t int, body func(int) error) func(int) error {
			return monitoredBody(body, &busies[t], &counts[t])
		}
	}

	// firstErr records the error from the smallest failing index so the
	// reported failure is deterministic regardless of interleaving; real
	// errors displace cancellation errors so fail-fast loops report the
	// cause, not the cancellation it triggered.
	var (
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	record := func(i int, err error) {
		if err == nil {
			return
		}
		mu.Lock()
		if betterError(err, i, firstErr, firstIdx) {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(w)
	switch sched {
	case ScheduleGuided:
		// Guided self-scheduling: each claim takes remaining/w iterations
		// (at least chunkSize), so early claims are large and cheap while the
		// tail is fine-grained enough that no worker is left holding a big
		// block behind the join barrier.
		if chunkSize <= 0 {
			chunkSize = 1
		}
		var next atomic.Int64
		for t := 0; t < w; t++ {
			run := wrap(t, body)
			go func() {
				defer wg.Done()
				for {
					cur := next.Load()
					if cur >= int64(n) {
						return
					}
					size := (n - int(cur)) / w
					if size < chunkSize {
						size = chunkSize
					}
					if !next.CompareAndSwap(cur, cur+int64(size)) {
						continue
					}
					end := int(cur) + size
					if end > n {
						end = n
					}
					for i := int(cur); i < end; i++ {
						record(i, run(i))
					}
				}
			}()
		}
	case ScheduleDynamic:
		if chunkSize <= 0 {
			chunkSize = 1
		}
		var next atomic.Int64
		for t := 0; t < w; t++ {
			run := wrap(t, body)
			go func() {
				defer wg.Done()
				for {
					start := int(next.Add(int64(chunkSize))) - chunkSize
					if start >= n {
						return
					}
					end := start + chunkSize
					if end > n {
						end = n
					}
					for i := start; i < end; i++ {
						record(i, run(i))
					}
				}
			}()
		}
	default: // ScheduleStatic
		// Split [0,n) into w nearly equal contiguous blocks.
		base, rem := n/w, n%w
		start := 0
		for t := 0; t < w; t++ {
			size := base
			if t < rem {
				size++
			}
			lo, hi := start, start+size
			start = hi
			run := wrap(t, body)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					record(i, run(i))
				}
			}()
		}
	}
	wg.Wait()
	if mon != nil {
		wall := time.Since(started)
		for t := 0; t < w; t++ {
			idle := wall - busies[t]
			if idle < 0 {
				idle = 0
			}
			mon.WorkerSpan(t, busies[t], idle, counts[t])
		}
	}
	return firstErr
}

func serialFor(n int, body func(i int) error) error {
	var firstErr error
	var firstIdx int
	for i := 0; i < n; i++ {
		if err := body(i); err != nil && betterError(err, i, firstErr, firstIdx) {
			firstErr, firstIdx = err, i
		}
	}
	return firstErr
}
