// Package dataflow is the record-level task-DAG scheduler: one ready-set
// worker loop that drains the graphs of one or more jobs on a bounded
// worker pool, and one event-driven simulator that charges the same
// schedule on a virtual clock.
//
// The pipeline's staged drivers synchronize at an inter-stage barrier after
// every stage, so each stage costs the *maximum* over records — a single
// 384K-point station stalls stations that finished long ago.  A graph
// removes those barriers: a node becomes runnable the moment its declared
// dependencies finish, so one record can compute its response spectrum
// while another is still band-pass filtering, overlapping compute-bound and
// I/O-bound work.
//
// Within a job the scheduler picks the ready node with the largest
// critical-path length (its weight plus the heaviest chain of dependents
// below it); ties break heaviest-node-first, then by insertion order.
// Weights are caller-supplied cost estimates — the pipeline uses record
// data-point counts — so the policy degenerates to longest-first list
// scheduling on wide graphs, the classic makespan heuristic.  Execute runs
// one graph as a one-job Run; across jobs a Policy picks whose node runs
// next (see Run).
//
// Graphs are acyclic by construction: a node's dependencies must already be
// in the graph when it is added, so edges always point backwards in
// insertion order and no cycle check is needed at run time.
package dataflow

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// NodeID identifies one node of a Graph; IDs are dense and assigned in
// insertion order.
type NodeID int

// Spec describes one node to add to a Graph.
type Spec struct {
	// Label names the node in stats and error messages, e.g. "fourier:SS03".
	Label string
	// Weight is the node's estimated cost in arbitrary units (the pipeline
	// uses record data-point counts).  It feeds the critical-path priority
	// and the heaviest-first tie-breaker; non-positive weights are treated
	// as zero.
	Weight float64
	// Alpha is the node's contention coefficient on the simulated platform:
	// Simulate scales the node's measured cost by simsched.Slowdown with
	// this coefficient.  Unused by the real executor.
	Alpha float64
	// Run executes the node's work.  A non-nil error marks the node failed:
	// its transitive dependents are skipped and the error is reported by
	// Execute.  Run must be safe to call from any goroutine.
	Run func() error
}

type node struct {
	id   NodeID
	spec Spec
	deps []NodeID
	// sdeps are stream dependencies: producers whose dispatch (not
	// completion) makes this node runnable, because the pair communicate
	// through an order-aware chunk stream instead of a materialized artifact.
	sdeps []NodeID
	// children and schildren are the forward edges; pri is the
	// critical-path priority computed at execution time.
	children  []NodeID
	schildren []NodeID
	pri       float64
}

// Graph is a DAG of tasks under construction.  It is not safe for
// concurrent mutation; build it fully, then call Execute or hand it to Run
// or Simulate as a job.
type Graph struct {
	nodes []*node
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Len returns the number of nodes added so far.
func (g *Graph) Len() int { return len(g.nodes) }

// Add appends a node depending on the given existing nodes and returns its
// ID.  It panics if a dependency has not been added yet — that ordering is
// what guarantees acyclicity by construction.
func (g *Graph) Add(spec Spec, deps ...NodeID) NodeID {
	id := NodeID(len(g.nodes))
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("dataflow: node %q depends on %d, not yet in graph (next id %d)", spec.Label, d, id))
		}
	}
	if spec.Weight < 0 || math.IsNaN(spec.Weight) {
		// Negative and NaN weights would poison the priority sweep and, worse,
		// make readyHeap comparisons non-transitive (NaN != NaN), so the
		// dispatch order would depend on heap internals.  Clamp to zero: ties
		// then resolve on the stable NodeID order.
		spec.Weight = 0
	}
	n := &node{id: id, spec: spec, deps: append([]NodeID(nil), deps...)}
	g.nodes = append(g.nodes, n)
	return id
}

// AddStream appends a node like Add, with an extra set of stream
// dependencies: producers this node consumes through an order-aware chunk
// stream.  A stream edge is released when its producer is *dispatched* —
// popped by a worker — rather than when it completes, so the pair run
// concurrently with the stream's chunk budget as backpressure.  Simulate,
// whose costs were measured serially, never reports dispatch: completion
// releases any still-held stream edges there, in strict order.
//
// Stream dependencies obey the same acyclicity-by-construction rule as
// ordinary dependencies and contribute to the producer's critical-path
// priority exactly like artifact edges.
func (g *Graph) AddStream(spec Spec, streamDeps []NodeID, deps ...NodeID) NodeID {
	id := g.Add(spec, deps...)
	for _, d := range streamDeps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("dataflow: node %q stream-depends on %d, not yet in graph (next id %d)", spec.Label, int(d), int(id)))
		}
	}
	g.nodes[id].sdeps = append([]NodeID(nil), streamDeps...)
	return id
}

// Label returns the label of id.
func (g *Graph) Label(id NodeID) string { return g.nodes[id].spec.Label }

// prioritize computes every node's critical-path length: its own weight
// plus the heaviest chain of dependents below it.  Nodes are stored in
// topological order (edges point backwards), so one reverse sweep suffices.
func (g *Graph) prioritize() {
	for i := range g.nodes {
		g.nodes[i].children = g.nodes[i].children[:0]
		g.nodes[i].schildren = g.nodes[i].schildren[:0]
	}
	for _, n := range g.nodes {
		for _, d := range n.deps {
			g.nodes[d].children = append(g.nodes[d].children, n.id)
		}
		for _, d := range n.sdeps {
			g.nodes[d].schildren = append(g.nodes[d].schildren, n.id)
		}
	}
	for i := len(g.nodes) - 1; i >= 0; i-- {
		n := g.nodes[i]
		best := 0.0
		for _, c := range n.children {
			if p := g.nodes[c].pri; p > best {
				best = p
			}
		}
		for _, c := range n.schildren {
			if p := g.nodes[c].pri; p > best {
				best = p
			}
		}
		n.pri = n.spec.Weight + best
	}
}

// readyHeap orders ready nodes critical-path-first, then heaviest-first,
// then by insertion order — a max-heap on (pri, weight, -id).
type readyHeap []*node

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.pri != b.pri {
		return a.pri > b.pri
	}
	if a.spec.Weight != b.spec.Weight {
		return a.spec.Weight > b.spec.Weight
	}
	return a.id < b.id
}
func (h readyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *readyHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	// Clear the vacated slot: a stale pointer there would keep the node's
	// Run closure, and everything it reaches, alive for the heap's lifetime.
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// better reports whether (err, id) should displace (cur, curID) as the
// reported failure: any error beats none, real errors beat cancellations,
// and among peers the smallest node ID wins — the same determinism contract
// as the parallel package's loops.
func better(err error, id NodeID, cur error, curID NodeID) bool {
	if cur == nil {
		return true
	}
	curCancel := errors.Is(cur, context.Canceled) || errors.Is(cur, context.DeadlineExceeded)
	newCancel := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if curCancel != newCancel {
		return curCancel
	}
	return id < curID
}
