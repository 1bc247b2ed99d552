package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestTaskGroupRunsAllTasks(t *testing.T) {
	g := NewTaskGroup(3)
	var ran atomic.Int32
	for i := 0; i < 50; i++ {
		g.Go(func() error {
			ran.Add(1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := ran.Load(); got != 50 {
		t.Errorf("ran %d tasks, want 50", got)
	}
}

func TestTaskGroupBoundsConcurrency(t *testing.T) {
	const width = 3
	g := NewTaskGroup(width)
	var cur, max atomic.Int32
	for i := 0; i < 30; i++ {
		g.Go(func() error {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := max.Load(); got > width {
		t.Errorf("observed %d concurrent tasks, want <= %d", got, width)
	}
}

func TestTaskGroupRetainsFirstError(t *testing.T) {
	errA := errors.New("a")
	g := NewTaskGroup(1) // serial execution makes "first" deterministic
	g.Go(func() error { return nil })
	g.Go(func() error { return errA })
	g.Go(func() error { return errors.New("b") })
	if err := g.Wait(); !errors.Is(err, errA) {
		t.Errorf("Wait = %v, want %v", err, errA)
	}
	// Reuse after failure keeps reporting the first failure.
	g.Go(func() error { return nil })
	if err := g.Wait(); !errors.Is(err, errA) {
		t.Errorf("Wait after reuse = %v, want %v", err, errA)
	}
}

func TestTaskGroupReusableAcrossBarriers(t *testing.T) {
	// Mirrors the paper's Stage I taskwait followed by Stage II tasks.
	g := NewTaskGroup(4)
	var stage1 atomic.Int32
	g.Go(func() error { stage1.Add(1); return nil })
	g.Go(func() error { stage1.Add(1); return nil })
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if stage1.Load() != 2 {
		t.Fatalf("stage 1 ran %d tasks, want 2", stage1.Load())
	}
	var stage2 atomic.Int32
	for i := 0; i < 4; i++ {
		g.Go(func() error { stage2.Add(1); return nil })
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if stage2.Load() != 4 {
		t.Errorf("stage 2 ran %d tasks, want 4", stage2.Load())
	}
}

func TestRunTasks(t *testing.T) {
	var a, b, c atomic.Bool
	err := RunTasks(2,
		func() error { a.Store(true); return nil },
		func() error { b.Store(true); return nil },
		func() error { c.Store(true); return nil },
	)
	if err != nil {
		t.Fatalf("RunTasks: %v", err)
	}
	if !a.Load() || !b.Load() || !c.Load() {
		t.Error("not all tasks ran")
	}
}

// Property: a TaskGroup of any width completes exactly the spawned number of
// tasks, no more, no fewer.
func TestTaskGroupCompletesExactly(t *testing.T) {
	f := func(widthRaw uint8, nRaw uint8) bool {
		width := int(widthRaw%8) + 1
		n := int(nRaw % 64)
		g := NewTaskGroup(width)
		var ran atomic.Int32
		for i := 0; i < n; i++ {
			g.Go(func() error { ran.Add(1); return nil })
		}
		if err := g.Wait(); err != nil {
			return false
		}
		return ran.Load() == int32(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
