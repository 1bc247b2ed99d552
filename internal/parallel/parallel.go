// Package parallel provides the shared-memory parallel runtime used by the
// accelerographic processing pipeline.
//
// The original system described in the paper uses OpenMP pragmas from C++
// and Fortran: parallel for-loops with static or dynamic scheduling, and
// explicit task parallelism with taskwait barriers.  The pipeline runs both
// inside one event as layers of a dataflow graph (internal/dataflow); this
// package offers the fork-join loop on top of goroutines for the levels
// above it, such as the event-level batch:
//
//   - ParallelFor / ParallelForDynamic / ParallelForMonitored: fork-join
//     loops over an index range, equivalent to "#pragma omp parallel for".
//
// The loops accept an explicit worker count so that experiments can
// sweep thread counts the same way the paper sweeps OpenMP threads; a count
// of zero (or DefaultWorkers) means "use all available processors", matching
// the paper's use of omp_get_max_threads().
package parallel

import (
	"fmt"
	"runtime"
)

// DefaultWorkers selects runtime.GOMAXPROCS(0) workers, mirroring OpenMP's
// default team size of omp_get_max_threads().
const DefaultWorkers = 0

// Workers normalizes a requested worker count: values <= 0 map to
// runtime.GOMAXPROCS(0), everything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Schedule selects how loop iterations are assigned to workers, mirroring
// the OpenMP schedule() clause.
type Schedule int

const (
	// ScheduleStatic divides the iteration space into one contiguous block
	// per worker, like schedule(static).  Best when iterations cost roughly
	// the same.
	ScheduleStatic Schedule = iota
	// ScheduleDynamic hands out chunks of iterations on demand from a shared
	// counter, like schedule(dynamic, chunk).  Best when iteration costs are
	// uneven, e.g. V1 files with very different sample counts.
	ScheduleDynamic
	// ScheduleGuided hands out exponentially shrinking chunks — each claim
	// takes remaining/workers iterations, never fewer than the chunk size —
	// like schedule(guided, chunk).  It keeps the low scheduling overhead of
	// big chunks early while leaving small chunks at the end to smooth out
	// stragglers, the right default for loops over records spanning 56K-384K
	// data points.
	ScheduleGuided
)

// String returns the OpenMP-style name of the schedule.
func (s Schedule) String() string {
	switch s {
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}
