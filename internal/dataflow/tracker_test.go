package dataflow

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

// buildTieGraph constructs a graph whose ready set repeatedly holds nodes of
// equal priority AND equal weight, so dispatch order is decided purely by the
// NodeID tie-break: a root fanning out to three identical branches of two
// identical chains each.
func buildTieGraph(record func(NodeID)) *Graph {
	g := New()
	add := func(w float64, deps ...NodeID) NodeID {
		var id NodeID
		id = g.Add(Spec{
			Label:  fmt.Sprintf("n%d", g.Len()),
			Weight: w,
			Run:    func() error { record(id); return nil },
		}, deps...)
		return id
	}
	root := add(1)
	for b := 0; b < 3; b++ {
		head := add(2, root)
		mid := add(2, head)
		add(2, mid)
	}
	return g
}

// TestExecuteScheduleDeterministicAtOneWorker pins satellite contract: at
// workers=1 the dispatch order is a pure function of the graph, identical
// across runs even when every ready node ties on priority and weight.
func TestExecuteScheduleDeterministicAtOneWorker(t *testing.T) {
	run := func() []NodeID {
		var mu sync.Mutex
		var order []NodeID
		g := buildTieGraph(func(id NodeID) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		})
		if _, err := g.Execute(1, nil); err != nil {
			t.Fatalf("Execute: %v", err)
		}
		return order
	}
	first := run()
	if len(first) != 10 {
		t.Fatalf("executed %d nodes, want 10", len(first))
	}
	for i := 0; i < 5; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d schedule %v differs from first %v", i, got, first)
		}
	}
	// Root first, then the three branch heads, mids and tails, each tier in
	// NodeID order: the (priority, weight, id) total order.
	if want := []NodeID{0, 1, 4, 7, 2, 5, 8, 3, 6, 9}; !reflect.DeepEqual(first, want) {
		t.Fatalf("Execute(1) order %v, want %v", first, want)
	}
}

// TestAddClampsNaNWeight: a NaN weight would make readyHeap's float
// comparisons non-transitive and the schedule heap-layout-dependent.
func TestAddClampsNaNWeight(t *testing.T) {
	g := New()
	id := g.Add(Spec{Label: "nan", Weight: math.NaN(), Run: noop})
	g.Add(Spec{Label: "neg", Weight: -5, Run: noop})
	g.prioritize()
	if w := g.nodes[id].spec.Weight; w != 0 {
		t.Fatalf("NaN weight stored as %v, want 0", w)
	}
	if p := g.nodes[id].pri; math.IsNaN(p) || p != 0 {
		t.Fatalf("priority = %v, want 0", p)
	}
}

func TestTrackerMirrorsExecuteSemantics(t *testing.T) {
	g := New()
	boom := errors.New("boom")
	a := g.Add(Spec{Label: "a", Weight: 4, Run: noop})
	b := g.Add(Spec{Label: "b", Weight: 3, Run: func() error { return boom }})
	c := g.Add(Spec{Label: "c", Weight: 2, Run: noop}, b)    // skipped
	d := g.Add(Spec{Label: "d", Weight: 1, Run: noop}, a, c) // skipped transitively
	e := g.Add(Spec{Label: "e", Weight: 1, Run: noop}, a)    // independent branch survives
	tr := newTracker(g)
	if got := tr.initialReady(); !reflect.DeepEqual(got, []NodeID{a, b}) {
		t.Fatalf("InitialReady = %v, want [%d %d]", got, a, b)
	}
	ready, skipped := tr.complete(a, nil)
	if !reflect.DeepEqual(ready, []NodeID{e}) || len(skipped) != 0 {
		t.Fatalf("after a: ready=%v skipped=%v", ready, skipped)
	}
	ready, skipped = tr.complete(b, boom)
	// c resolves skipped immediately; d's last dependency (c) resolves within
	// the same cascade, so d is skipped too.
	if !reflect.DeepEqual(skipped, []NodeID{c, d}) || len(ready) != 0 {
		t.Fatalf("after b: ready=%v skipped=%v, want skipped [%d %d]", ready, skipped, c, d)
	}
	if tr.done() {
		t.Fatal("Done before e completed")
	}
	if _, _ = tr.complete(e, nil); !tr.done() {
		t.Fatal("not Done after all nodes resolved")
	}
	if !errors.Is(tr.err, boom) {
		t.Fatalf("Err = %v, want boom", tr.err)
	}
	if got, want := g.nodes[a].pri, 4.0+1; got != want {
		t.Fatalf("priority(a) = %v, want %v", got, want)
	}
	if got, want := g.nodes[b].pri, 3.0+2+1; got != want {
		t.Fatalf("priority(b) = %v, want %v", got, want)
	}
}
