package dataflow

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func noop() error { return nil }

func TestExecuteRunsEveryNodeExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		t.Run(fmt.Sprintf("w=%d", workers), func(t *testing.T) {
			g := New()
			const n = 40
			counts := make([]atomic.Int32, n)
			ids := make([]NodeID, 0, n)
			for i := 0; i < n; i++ {
				i := i
				var deps []NodeID
				if i > 0 {
					deps = append(deps, ids[i/2]) // binary-tree-ish shape
				}
				ids = append(ids, g.Add(Spec{
					Label:  fmt.Sprintf("n%d", i),
					Weight: float64(n - i),
					Run:    func() error { counts[i].Add(1); return nil },
				}, deps...))
			}
			stats, err := g.Execute(workers, nil)
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if len(stats) != n {
				t.Fatalf("stats = %d, want %d", len(stats), n)
			}
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Errorf("node %d ran %d times, want 1", i, got)
				}
			}
			for _, st := range stats {
				if st.Skipped {
					t.Errorf("node %d skipped in healthy run", st.ID)
				}
				if st.Worker < 0 {
					t.Errorf("node %d has no worker", st.ID)
				}
				if st.Start < st.Ready || st.End < st.Start {
					t.Errorf("node %d times out of order: ready=%v start=%v end=%v",
						st.ID, st.Ready, st.Start, st.End)
				}
			}
		})
	}
}

// TestExecuteRespectsDependencies asserts the core dataflow invariant: no
// node starts before every one of its dependencies has finished.
func TestExecuteRespectsDependencies(t *testing.T) {
	g := New()
	const n = 64
	finished := make([]atomic.Bool, n)
	var violation atomic.Int32
	ids := make([]NodeID, 0, n)
	rng := rand.New(rand.NewSource(42))
	deps := make([][]NodeID, n)
	for i := 0; i < n; i++ {
		i := i
		for _, d := range []int{rng.Intn(i + 1), rng.Intn(i + 1)} {
			if d < i {
				deps[i] = append(deps[i], ids[d])
			}
		}
		// Drawn up front: the shared rng must not be touched from node bodies.
		sleep := time.Duration(rng.Intn(50)) * time.Microsecond
		ids = append(ids, g.Add(Spec{
			Label:  fmt.Sprintf("n%d", i),
			Weight: rng.Float64() * 100,
			Run: func() error {
				for _, d := range deps[i] {
					if !finished[d].Load() {
						violation.Store(int32(i))
					}
				}
				time.Sleep(sleep)
				finished[i].Store(true)
				return nil
			},
		}, deps[i]...))
	}
	if _, err := g.Execute(8, nil); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if v := violation.Load(); v != 0 {
		t.Fatalf("node %d started before a dependency finished", v)
	}
}

func TestAddPanicsOnUnknownDependency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted a forward dependency")
		}
	}()
	g := New()
	g.Add(Spec{Label: "a", Run: noop}, NodeID(3))
}

// TestSerialOrderIsCriticalPathFirst checks the scheduling policy on a
// two-chain graph: the heavy chain's nodes must all dispatch before the
// light chain even starts, because every node of the heavy chain has a
// larger critical path than the light chain's head.
func TestSerialOrderIsCriticalPathFirst(t *testing.T) {
	g := New()
	// Heavy chain: 3 nodes of weight 10 (critical paths 30, 20, 10).
	h0 := g.Add(Spec{Label: "h0", Weight: 10, Run: noop})
	h1 := g.Add(Spec{Label: "h1", Weight: 10, Run: noop}, h0)
	h2 := g.Add(Spec{Label: "h2", Weight: 10, Run: noop}, h1)
	// Light chain: 2 nodes of weight 3 (critical paths 6, 3).
	l0 := g.Add(Spec{Label: "l0", Weight: 3, Run: noop})
	l1 := g.Add(Spec{Label: "l1", Weight: 3, Run: noop}, l0)

	got := serialOrder(t, g)
	want := []NodeID{h0, h1, h2, l0, l1}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v (critical-path-first)", got, want)
		}
	}
}

// TestTieBreakHeaviestFirst: equal critical paths dispatch heaviest node
// first, then by insertion order.
func TestTieBreakHeaviestFirst(t *testing.T) {
	g := New()
	a := g.Add(Spec{Label: "a", Weight: 5, Run: noop})
	b := g.Add(Spec{Label: "b", Weight: 9, Run: noop})
	c := g.Add(Spec{Label: "c", Weight: 9, Run: noop})
	got := serialOrder(t, g)
	want := []NodeID{b, c, a}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestExecuteSkipsTransitiveDependentsOnFailure(t *testing.T) {
	g := New()
	boom := errors.New("boom")
	var ran sync.Map
	mk := func(label string, err error, deps ...NodeID) NodeID {
		return g.Add(Spec{Label: label, Weight: 1, Run: func() error {
			ran.Store(label, true)
			return err
		}}, deps...)
	}
	a := mk("a", boom)
	b := mk("b", nil, a)
	c := mk("c", nil, b)
	d := mk("d", nil) // independent branch keeps running
	e := mk("e", nil, d)

	stats, err := g.Execute(2, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	for _, id := range []NodeID{b, c} {
		if _, ok := ran.Load(g.Label(id)); ok {
			t.Errorf("dependent %q ran after failure", g.Label(id))
		}
		if !stats[id].Skipped {
			t.Errorf("node %q not marked skipped", g.Label(id))
		}
	}
	for _, id := range []NodeID{d, e} {
		if _, ok := ran.Load(g.Label(id)); !ok {
			t.Errorf("independent node %q did not run", g.Label(id))
		}
		if stats[id].Skipped {
			t.Errorf("independent node %q marked skipped", g.Label(id))
		}
	}
}

func TestExecuteReportsSmallestFailingNode(t *testing.T) {
	g := New()
	errA := errors.New("first")
	errB := errors.New("second")
	g.Add(Spec{Label: "a", Run: func() error { return errA }})
	g.Add(Spec{Label: "b", Run: func() error { return errB }})
	_, err := g.Execute(1, nil)
	if !errors.Is(err, errA) {
		t.Fatalf("error = %v, want the smallest node's failure", err)
	}
}

func TestExecuteRealErrorDisplacesCancellation(t *testing.T) {
	g := New()
	boom := errors.New("boom")
	// The cancellation has the smaller node ID, but the real error must win.
	g.Add(Spec{Label: "cancelled", Run: func() error { return context.Canceled }})
	g.Add(Spec{Label: "real", Run: func() error { return boom }})
	_, err := g.Execute(1, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want the real error over the cancellation", err)
	}
}

type recordingMonitor struct {
	mu    sync.Mutex
	spans int
	tasks int
	waits int
}

func (m *recordingMonitor) WorkerSpan(worker int, busy, idle time.Duration, tasks int) {
	m.mu.Lock()
	m.spans++
	m.tasks += tasks
	m.mu.Unlock()
}

func (m *recordingMonitor) TaskWait(d time.Duration) {
	m.mu.Lock()
	m.waits++
	m.mu.Unlock()
}

func TestExecuteReportsWorkerSpansAndWaits(t *testing.T) {
	g := New()
	const n, workers = 12, 3
	for i := 0; i < n; i++ {
		g.Add(Spec{Label: fmt.Sprintf("n%d", i), Run: func() error {
			time.Sleep(100 * time.Microsecond)
			return nil
		}})
	}
	mon := &recordingMonitor{}
	if _, err := g.Execute(workers, mon); err != nil {
		t.Fatal(err)
	}
	if mon.spans != workers {
		t.Errorf("worker spans = %d, want %d", mon.spans, workers)
	}
	if mon.tasks != n {
		t.Errorf("tasks = %d, want %d", mon.tasks, n)
	}
	if mon.waits != n {
		t.Errorf("task waits = %d, want %d", mon.waits, n)
	}
}

func TestExecuteEmptyGraph(t *testing.T) {
	stats, err := New().Execute(4, nil)
	if err != nil || stats != nil {
		t.Fatalf("empty graph: stats=%v err=%v", stats, err)
	}
}

// serialOrder returns the order in which Execute(1, nil) runs g's nodes.
func serialOrder(t *testing.T, g *Graph) []NodeID {
	t.Helper()
	var order []NodeID
	for _, nd := range g.nodes {
		id, run := nd.id, nd.spec.Run
		nd.spec.Run = func() error {
			order = append(order, id)
			return run()
		}
	}
	if _, err := g.Execute(1, nil); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return order
}

// simulate is the makespan of g alone on the simulated platform.
func simulate(g *Graph, durs []time.Duration, workers int) time.Duration {
	return Simulate([]SimJob{{Name: "g", Graph: g, Durs: durs}}, workers, 1, Throughput)[0].Done
}

// TestSimMakespanChainAndFanOut checks Simulate's makespan of one graph on
// chains, fan-outs and contention.
func TestSimMakespanChainAndFanOut(t *testing.T) {
	ms := time.Millisecond
	// Chain: serial regardless of workers.
	g := New()
	a := g.Add(Spec{Label: "a", Weight: 1, Run: noop})
	g.Add(Spec{Label: "b", Weight: 1, Run: noop}, a)
	if got := simulate(g, []time.Duration{3 * ms, 4 * ms}, 4); got != 7*ms {
		t.Errorf("chain makespan = %v, want 7ms", got)
	}
	// Fan-out, alpha 0: perfect overlap on 2 workers.
	g2 := New()
	g2.Add(Spec{Label: "a", Weight: 1, Run: noop})
	g2.Add(Spec{Label: "b", Weight: 1, Run: noop})
	if got := simulate(g2, []time.Duration{3 * ms, 4 * ms}, 2); got != 4*ms {
		t.Errorf("fan-out makespan = %v, want 4ms", got)
	}
	// Fan-out with contention: each node slowed by 1 + 0.5*(2-1) = 1.5.
	g3 := New()
	g3.Add(Spec{Label: "a", Weight: 1, Alpha: 0.5, Run: noop})
	g3.Add(Spec{Label: "b", Weight: 1, Alpha: 0.5, Run: noop})
	if got := simulate(g3, []time.Duration{4 * ms, 4 * ms}, 2); got != 6*ms {
		t.Errorf("contended makespan = %v, want 6ms", got)
	}
	// One worker: serial sum, no contention.
	if got := simulate(g3, []time.Duration{4 * ms, 4 * ms}, 1); got != 8*ms {
		t.Errorf("serial makespan = %v, want 8ms", got)
	}
}

// TestSimMakespanNeverBelowCriticalPath sanity-checks Simulate against
// the two trivial lower bounds on random DAGs: the critical path and the
// total work divided by the worker count (alpha 0 so no contention).
func TestSimMakespanNeverBelowCriticalPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := New()
		const n = 30
		durs := make([]time.Duration, n)
		ids := make([]NodeID, 0, n)
		for i := 0; i < n; i++ {
			var deps []NodeID
			for d := 0; d < i; d++ {
				if rng.Intn(8) == 0 {
					deps = append(deps, ids[d])
				}
			}
			durs[i] = time.Duration(rng.Intn(1000)+1) * time.Microsecond
			ids = append(ids, g.Add(Spec{Label: fmt.Sprintf("n%d", i), Weight: float64(durs[i])}, deps...))
		}
		for _, w := range []int{1, 2, 4, 8} {
			got := simulate(g, durs, w)
			if got < Sum(durs)/time.Duration(w) {
				t.Errorf("trial %d w=%d: makespan %v below work bound %v", trial, w, got, Sum(durs)/time.Duration(w))
			}
			if got > Sum(durs) {
				t.Errorf("trial %d w=%d: makespan %v above serial sum %v", trial, w, got, Sum(durs))
			}
		}
	}
}

// Sum is a test helper mirroring simsched.Sum.
func Sum(durs []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range durs {
		s += d
	}
	return s
}

// soakGraph builds a random 120-node DAG with random failures; check
// verifies the once-and-ordered invariants against one execution's result.
func soakGraph(t *testing.T, seed int64) (g *Graph, check func([]NodeStat, error)) {
	rng := rand.New(rand.NewSource(seed))
	g = New()
	const n = 120
	boom := errors.New("boom")
	counts := make([]atomic.Int32, n)
	finished := make([]atomic.Bool, n)
	deps := make([][]NodeID, n)
	ids := make([]NodeID, 0, n)
	fail := make([]bool, n)
	anyFail := false
	for i := 0; i < n; i++ {
		i := i
		for d := 0; d < 3; d++ {
			if p := rng.Intn(i + 1); p < i {
				deps[i] = append(deps[i], ids[p])
			}
		}
		fail[i] = rng.Intn(30) == 0
		anyFail = anyFail || fail[i]
		ids = append(ids, g.Add(Spec{
			Label:  fmt.Sprintf("r%d-n%d", seed, i),
			Weight: rng.Float64() * 1000,
			Run: func() error {
				counts[i].Add(1)
				for _, d := range deps[i] {
					if !finished[d].Load() {
						return fmt.Errorf("node %d ran before dep %d", i, d)
					}
				}
				if fail[i] {
					return boom
				}
				finished[i].Store(true)
				return nil
			},
		}, deps[i]...))
	}
	return g, func(stats []NodeStat, err error) {
		if anyFail && err == nil {
			t.Errorf("graph %d: failures injected but no error returned", seed)
		}
		if err != nil && !errors.Is(err, boom) {
			t.Errorf("graph %d: %v", seed, err)
		}
		for i := range counts {
			c := counts[i].Load()
			if stats[i].Skipped && c != 0 {
				t.Errorf("graph %d: skipped node %d ran", seed, i)
			}
			if !stats[i].Skipped && c != 1 {
				t.Errorf("graph %d: node %d ran %d times", seed, i, c)
			}
		}
	}
}

// TestExecuteSoak is the race-detector workout: many concurrent executions
// of random DAGs with random failures, and one multi-job Run sharing a pool
// across such DAGs, checking the once-and-ordered invariants every time.
func TestExecuteSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	var outer sync.WaitGroup
	for round := 0; round < 8; round++ {
		outer.Add(1)
		go func(round int64) {
			defer outer.Done()
			g, check := soakGraph(t, round)
			check(g.Execute(1+rand.New(rand.NewSource(round)).Intn(8), nil))
		}(int64(round))
	}
	outer.Wait()

	// A graph runs once, so every policy gets freshly built jobs.
	for _, policy := range []Policy{Balanced, Latency, Throughput} {
		jobs := make([]Job, 8)
		checks := make([]func([]NodeStat, error), len(jobs))
		for i := range jobs {
			g, check := soakGraph(t, int64(100+i))
			checks[i] = check
			jobs[i] = Job{Name: g.Label(0), Graph: g}
			if i%2 == 1 { // half the jobs build their graph on a pool worker
				jobs[i] = Job{Name: g.Label(0), Build: func() (*Graph, error) { return g, nil }}
			}
		}
		for i, r := range Run(jobs, Options{Workers: 4, Admit: 3, Policy: policy}) {
			checks[i](r.Stats, r.Err)
		}
	}
}
