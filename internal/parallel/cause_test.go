package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

var errReal = errors.New("disk on fire")

// TestParallelForPrefersRealCauseOverCancellation models fail-fast
// propagation: one iteration reports the real failure while the rest are
// torn down with context.Canceled.  The construct must report the cause.
func TestParallelForPrefersRealCauseOverCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ParallelFor(8, workers, func(i int) error {
			if i == 5 {
				return fmt.Errorf("iteration %d: %w", i, errReal)
			}
			return context.Canceled
		})
		if !errors.Is(err, errReal) {
			t.Errorf("workers=%d: reported %v, want the real cause", workers, err)
		}
	}
}

func TestParallelForDeterministicWinnerWithinClass(t *testing.T) {
	// All-real errors: the smallest failing index must win regardless of
	// scheduling.
	for trial := 0; trial < 10; trial++ {
		err := ParallelFor(16, 8, func(i int) error {
			if i >= 3 {
				return fmt.Errorf("index %d: %w", i, errReal)
			}
			return nil
		})
		if err == nil || err.Error() != "index 3: disk on fire" {
			t.Fatalf("trial %d: reported %v, want index 3", trial, err)
		}
	}
}

func TestParallelForAllCancelledStaysCancelled(t *testing.T) {
	err := ParallelFor(4, 2, func(i int) error { return context.Canceled })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("reported %v, want context.Canceled", err)
	}
}

// TestTaskGroupUpgradesCancellationToRealCause submits a cancellation
// failure first, then a real one: Wait must return the real cause even
// though it arrived second.
func TestTaskGroupUpgradesCancellationToRealCause(t *testing.T) {
	g := NewTaskGroup(1) // one worker serialises the tasks in order
	var first atomic.Bool
	g.Go(func() error {
		first.Store(true)
		return context.Canceled
	})
	g.Go(func() error {
		if !first.Load() {
			t.Error("tasks ran out of order on one worker")
		}
		return errReal
	})
	if err := g.Wait(); !errors.Is(err, errReal) {
		t.Errorf("Wait() = %v, want the real cause", err)
	}
}

func TestTaskGroupKeepsFirstRealCause(t *testing.T) {
	other := errors.New("second failure")
	g := NewTaskGroup(1)
	g.Go(func() error { return errReal })
	g.Go(func() error { return other })
	g.Go(func() error { return context.Canceled })
	if err := g.Wait(); !errors.Is(err, errReal) {
		t.Errorf("Wait() = %v, want the first real cause", err)
	}
}

func TestBetterError(t *testing.T) {
	cancel := context.Canceled
	cases := []struct {
		name   string
		err    error
		idx    int
		cur    error
		curIdx int
		want   bool
	}{
		{"first error wins over nil", errReal, 3, nil, 0, true},
		{"real beats cancellation", errReal, 9, cancel, 1, true},
		{"cancellation loses to real", cancel, 1, errReal, 9, false},
		{"same class smaller index wins", errReal, 2, errReal, 5, true},
		{"same class larger index loses", errReal, 5, errReal, 2, false},
		{"cancellations ordered by index", cancel, 0, cancel, 4, true},
	}
	for _, c := range cases {
		if got := betterError(c.err, c.idx, c.cur, c.curIdx); got != c.want {
			t.Errorf("%s: betterError = %v, want %v", c.name, got, c.want)
		}
	}
}
