package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestParallelForRunsEveryIndexExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, workers := range []int{0, 1, 2, 3, 8, 100} {
			name := fmt.Sprintf("n=%d/workers=%d", n, workers)
			t.Run(name, func(t *testing.T) {
				counts := make([]atomic.Int32, n)
				err := ParallelFor(n, workers, func(i int) error {
					counts[i].Add(1)
					return nil
				})
				if err != nil {
					t.Fatalf("ParallelFor: %v", err)
				}
				for i := range counts {
					if got := counts[i].Load(); got != 1 {
						t.Errorf("index %d ran %d times, want 1", i, got)
					}
				}
			})
		}
	}
}

func TestParallelForDynamicRunsEveryIndexExactlyOnce(t *testing.T) {
	for _, chunk := range []int{0, 1, 3, 17, 1000} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			const n = 257
			counts := make([]atomic.Int32, n)
			err := ParallelForDynamic(n, 4, chunk, func(i int) error {
				counts[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("ParallelForDynamic: %v", err)
			}
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Errorf("index %d ran %d times, want 1", i, got)
				}
			}
		})
	}
}

func TestParallelForGuidedRunsEveryIndexExactlyOnce(t *testing.T) {
	for _, chunk := range []int{0, 1, 3, 17, 1000} {
		for _, workers := range []int{1, 2, 4, 9} {
			t.Run(fmt.Sprintf("chunk=%d/w=%d", chunk, workers), func(t *testing.T) {
				const n = 257
				counts := make([]atomic.Int32, n)
				err := ParallelForMonitored(n, workers, ScheduleGuided, chunk, nil, func(i int) error {
					counts[i].Add(1)
					return nil
				})
				if err != nil {
					t.Fatalf("guided: %v", err)
				}
				for i := range counts {
					if got := counts[i].Load(); got != 1 {
						t.Errorf("index %d ran %d times, want 1", i, got)
					}
				}
			})
		}
	}
}

func TestParallelForReportsSmallestFailingIndex(t *testing.T) {
	errBoom := errors.New("boom")
	for _, sched := range []Schedule{ScheduleStatic, ScheduleDynamic, ScheduleGuided} {
		t.Run(sched.String(), func(t *testing.T) {
			err := ParallelForMonitored(100, 4, sched, 1, nil, func(i int) error {
				if i%10 == 3 {
					return fmt.Errorf("index %d: %w", i, errBoom)
				}
				return nil
			})
			if !errors.Is(err, errBoom) {
				t.Fatalf("error = %v, want wrapped errBoom", err)
			}
			if got := err.Error(); got != "index 3: boom" {
				t.Errorf("error = %q, want the smallest failing index (3)", got)
			}
		})
	}
}

func TestParallelForZeroAndNegativeN(t *testing.T) {
	ran := false
	if err := ParallelFor(0, 4, func(int) error { ran = true; return nil }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	if err := ParallelFor(-5, 4, func(int) error { ran = true; return nil }); err != nil {
		t.Fatalf("n=-5: %v", err)
	}
	if ran {
		t.Error("body ran for non-positive n")
	}
}

// Property: for any body computing a pure function of the index, ParallelFor
// fills an output slice identically to a serial loop, for every schedule.
func TestParallelForEquivalentToSerialLoop(t *testing.T) {
	f := func(seed int64, nRaw uint16, workersRaw uint8, dynamic bool) bool {
		n := int(nRaw%512) + 1
		workers := int(workersRaw%9) + 1
		body := func(i int) int64 { return seed*int64(i) + int64(i*i) }

		want := make([]int64, n)
		for i := 0; i < n; i++ {
			want[i] = body(i)
		}
		got := make([]int64, n)
		var err error
		if dynamic {
			err = ParallelForDynamic(n, workers, 3, func(i int) error {
				got[i] = body(i)
				return nil
			})
		} else {
			err = ParallelFor(n, workers, func(i int) error {
				got[i] = body(i)
				return nil
			})
		}
		if err != nil {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkersNormalization(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct{ in, want int }{
		{-1, max}, {0, max}, {1, 1}, {7, 7}, {1000, 1000},
	}
	for _, c := range cases {
		if got := Workers(c.in); got != c.want {
			t.Errorf("Workers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestScheduleString(t *testing.T) {
	if ScheduleStatic.String() != "static" || ScheduleDynamic.String() != "dynamic" {
		t.Errorf("unexpected names: %v %v", ScheduleStatic, ScheduleDynamic)
	}
	if ScheduleGuided.String() != "guided" {
		t.Errorf("guided schedule = %q", ScheduleGuided.String())
	}
	if got := Schedule(42).String(); got != "Schedule(42)" {
		t.Errorf("unknown schedule = %q", got)
	}
}
