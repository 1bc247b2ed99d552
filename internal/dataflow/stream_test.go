package dataflow

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestStreamEdgeReleasesAtDispatch pins the defining property of a stream
// edge: the consumer becomes runnable when the producer is dispatched, not
// when it completes, so the two overlap in time.
func TestStreamEdgeReleasesAtDispatch(t *testing.T) {
	pair := func() *Graph {
		g := New()
		rendezvous := make(chan struct{})
		producer := g.Add(Spec{Label: "producer", Run: func() error {
			// Block until the consumer is also running: only possible if the
			// stream edge released at dispatch.
			select {
			case rendezvous <- struct{}{}:
				return nil
			case <-time.After(5 * time.Second):
				return errors.New("consumer never started while producer was running")
			}
		}})
		g.AddStream(Spec{Label: "consumer", Run: func() error {
			select {
			case <-rendezvous:
				return nil
			case <-time.After(5 * time.Second):
				return errors.New("producer never handed off")
			}
		}}, []NodeID{producer})
		return g
	}

	t.Run("execute", func(t *testing.T) {
		if _, err := pair().Execute(2, nil); err != nil {
			t.Fatal(err)
		}
	})
	// Several jobs on one pool: Latency serves the older open job first, so
	// the second worker takes the consumer the first one's dispatch released.
	t.Run("run", func(t *testing.T) {
		jobs := []Job{{Name: "a", Graph: pair()}, {Name: "b", Graph: pair()}, {Name: "c", Graph: pair()}}
		for _, r := range Run(jobs, Options{Workers: 2, Admit: 2, Policy: Latency}) {
			if r.Err != nil {
				t.Errorf("job %s: %v", r.Name, r.Err)
			}
		}
	})
}

// TestStreamEdgeCompleteOnlyFallback drives the tracker by completions alone
// (the simulator's mode): stream consumers must still become runnable, just
// in strict order.
func TestStreamEdgeCompleteOnlyFallback(t *testing.T) {
	g := New()
	p := g.Add(Spec{Label: "p", Run: func() error { return nil }})
	c := g.AddStream(Spec{Label: "c", Run: func() error { return nil }}, []NodeID{p})

	tr := newTracker(g)
	init := tr.initialReady()
	if len(init) != 1 || init[0] != p {
		t.Fatalf("initial ready %v", init)
	}
	ready, skipped := tr.complete(p, nil)
	if len(skipped) != 0 || len(ready) != 1 || ready[0] != c {
		t.Fatalf("after complete-only producer: ready=%v skipped=%v", ready, skipped)
	}
	if rd, sk := tr.complete(c, nil); len(rd) != 0 || len(sk) != 0 {
		t.Fatalf("after consumer: ready=%v skipped=%v", rd, sk)
	}
	if !tr.done() || tr.err != nil {
		t.Fatalf("done=%v err=%v", tr.done(), tr.err)
	}
}

// TestStreamEdgeNoDoubleRelease: dispatching then completing the producer
// must decrement the consumer's indegree exactly once.
func TestStreamEdgeNoDoubleRelease(t *testing.T) {
	g := New()
	p := g.Add(Spec{Label: "p", Run: func() error { return nil }})
	gate := g.Add(Spec{Label: "gate", Run: func() error { return nil }})
	c := g.AddStream(Spec{Label: "c", Run: func() error { return nil }}, []NodeID{p}, gate)

	tr := newTracker(g)
	ready, _ := tr.dispatched(p)
	if len(ready) != 0 {
		t.Fatalf("consumer ready before its artifact dep: %v", ready)
	}
	// Completing the producer must NOT release the stream edge again; the
	// consumer still waits on gate.
	ready, _ = tr.complete(p, nil)
	if len(ready) != 0 {
		t.Fatalf("double release: %v", ready)
	}
	ready, _ = tr.complete(gate, nil)
	if len(ready) != 1 || ready[0] != c {
		t.Fatalf("after gate: %v", ready)
	}
}

// TestStreamEdgeSkipCascade: a failed producer must skip its stream
// consumers (and their dependents) when the edge releases at completion.
func TestStreamEdgeSkipCascade(t *testing.T) {
	g := New()
	boom := errors.New("boom")
	p := g.Add(Spec{Label: "p", Run: func() error { return boom }})
	c := g.AddStream(Spec{Label: "c", Run: func() error { return nil }}, []NodeID{p})
	d := g.Add(Spec{Label: "d", Run: func() error { return nil }}, c)

	tr := newTracker(g)
	ready, skipped := tr.complete(p, boom)
	if len(ready) != 0 {
		t.Fatalf("ready after failure: %v", ready)
	}
	if len(skipped) != 2 || skipped[0] != c || skipped[1] != d {
		t.Fatalf("skip cascade %v, want [%d %d]", skipped, c, d)
	}
	if !tr.done() || !errors.Is(tr.err, boom) {
		t.Fatalf("done=%v err=%v", tr.done(), tr.err)
	}
}

// TestStreamEdgeDispatchedProducerFailure: when the edge released at
// dispatch and the producer later fails, the consumer has already been
// handed the failure through the stream itself — the tracker must not skip
// it, and the run's error must still surface.
func TestStreamEdgeDispatchedProducerFailure(t *testing.T) {
	g := New()
	boom := errors.New("boom")
	p := g.Add(Spec{Label: "p", Run: func() error { return boom }})
	c := g.AddStream(Spec{Label: "c", Run: func() error { return nil }}, []NodeID{p})

	tr := newTracker(g)
	ready, skipped := tr.dispatched(p)
	if len(skipped) != 0 || len(ready) != 1 || ready[0] != c {
		t.Fatalf("dispatch release: ready=%v skipped=%v", ready, skipped)
	}
	ready, skipped = tr.complete(p, boom)
	if len(ready) != 0 || len(skipped) != 0 {
		t.Fatalf("post-failure: ready=%v skipped=%v", ready, skipped)
	}
	if _, sk := tr.complete(c, nil); len(sk) != 0 {
		t.Fatalf("consumer completion skipped %v", sk)
	}
	if !tr.done() || !errors.Is(tr.err, boom) {
		t.Fatalf("done=%v err=%v", tr.done(), tr.err)
	}
}

// TestStreamEdgesOrderedInSerialPlans: Execute(1, nil) and Simulate treat
// stream edges as ordered, so a consumer never precedes its producer in the
// serial run and the simulated makespan charges the producer's finish.
func TestStreamEdgesOrderedInSerialPlans(t *testing.T) {
	g := New()
	p := g.Add(Spec{Label: "p", Weight: 1, Run: func() error { return nil }})
	c := g.AddStream(Spec{Label: "c", Weight: 1, Run: func() error { return nil }}, []NodeID{p})
	other := g.Add(Spec{Label: "other", Weight: 10, Run: func() error { return nil }})

	order := serialOrder(t, g)
	pos := map[NodeID]int{}
	for i, id := range order {
		pos[id] = i
	}
	if pos[c] < pos[p] {
		t.Fatalf("consumer before producer in serial order %v", order)
	}
	durs := []time.Duration{time.Second, time.Second, time.Second}
	if got := simulate(g, durs, 1); got != 3*time.Second {
		t.Fatalf("1-worker makespan %v, want 3s", got)
	}
	// On 2+ workers the p→c chain (2s) and other (1s) overlap: 2s.
	if got := simulate(g, durs, 3); got != 2*time.Second {
		t.Fatalf("3-worker makespan %v, want 2s", got)
	}
	_ = other
}

// TestStreamEdgePriorityContribution: a stream consumer's critical path
// flows through its producer, so a heavy streamed chain outranks light
// independent work.
func TestStreamEdgePriorityContribution(t *testing.T) {
	g := New()
	var mu sync.Mutex
	var started []string
	mk := func(label string) func() error {
		return func() error {
			mu.Lock()
			started = append(started, label)
			mu.Unlock()
			return nil
		}
	}
	light := g.Add(Spec{Label: "light", Weight: 1, Run: mk("light")})
	heavyP := g.Add(Spec{Label: "heavyP", Weight: 1, Run: mk("heavyP")})
	g.AddStream(Spec{Label: "heavyC", Weight: 100, Run: mk("heavyC")}, []NodeID{heavyP})

	if _, err := g.Execute(1, nil); err != nil {
		t.Fatal(err)
	}
	// Single worker: heavyP (pri 101) must start before light (pri 1).
	if started[0] != "heavyP" {
		t.Fatalf("dispatch order %v, want heavyP first", started)
	}
	_ = light
}
