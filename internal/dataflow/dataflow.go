// Package dataflow is a record-level task-DAG scheduler: it executes a
// directed acyclic graph of tasks on a bounded worker pool, dispatching
// ready nodes critical-path-first.
//
// The pipeline's staged drivers synchronize at an inter-stage barrier after
// every stage, so each stage costs the *maximum* over records — a single
// 384K-point station stalls stations that finished long ago.  This package
// removes those barriers: a node becomes runnable the moment its declared
// dependencies finish, so one record can compute its response spectrum
// while another is still band-pass filtering, overlapping compute-bound and
// I/O-bound work.
//
// Scheduling policy: among ready nodes the executor picks the node with the
// largest critical-path length (its weight plus the heaviest chain of
// dependents below it); ties break heaviest-node-first, then by insertion
// order.  Weights are caller-supplied cost estimates — the pipeline uses
// record data-point counts — so the policy degenerates to longest-first
// list scheduling on wide graphs, the classic makespan heuristic.
//
// Graphs are acyclic by construction: a node's dependencies must already be
// in the graph when it is added, so edges always point backwards in
// insertion order and no cycle check is needed at run time.
package dataflow

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
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
	// Alpha is the node's contention coefficient on the simulated platform
	// (see internal/simsched); unused by the real executor.
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
	// children and indegree describe the forward edges; pri is the
	// critical-path priority computed at execution time.
	children  []NodeID
	schildren []NodeID
	pri       float64
}

// Graph is a DAG of tasks under construction.  It is not safe for
// concurrent mutation; build it fully, then call Execute or ExecuteSim.
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
// concurrently with the stream's chunk budget as backpressure.  External
// schedulers that never report dispatch (the fleet pool, which drives the
// Tracker by Complete alone) degrade gracefully: Complete releases any
// still-held stream edges, restoring strictly ordered execution.
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

// StreamDeps returns the stream-dependency IDs of id (for tests and
// introspection).
func (g *Graph) StreamDeps(id NodeID) []NodeID {
	return append([]NodeID(nil), g.nodes[id].sdeps...)
}

// Deps returns the dependency IDs of id (for tests and introspection).
func (g *Graph) Deps(id NodeID) []NodeID {
	return append([]NodeID(nil), g.nodes[id].deps...)
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

// NodeStat reports one executed node: when it became ready (all deps done),
// when a worker started it, and when it finished — all offsets from the
// Execute call.  Skipped nodes (a dependency failed) report Start == End ==
// Ready with Worker == -1 and Skipped == true.
type NodeStat struct {
	ID      NodeID
	Label   string
	Ready   time.Duration
	Start   time.Duration
	End     time.Duration
	Worker  int
	Skipped bool
}

// Wait returns how long the node sat in the ready queue before a worker
// picked it up.
func (s NodeStat) Wait() time.Duration { return s.Start - s.Ready }

// Monitor receives per-worker busy/idle accounting, structurally matching
// parallel.Monitor so obs.WorkerMonitor plugs in directly.
type Monitor interface {
	WorkerSpan(worker int, busy, idle time.Duration, tasks int)
}

// WaitMonitor optionally extends Monitor with per-node ready-queue waits.
type WaitMonitor interface {
	TaskWait(d time.Duration)
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
	*h = old[:n-1]
	return x
}

// Execute runs the graph on a bounded pool of workers (values <= 0 select
// one worker per node) and returns per-node stats in node-ID order.
//
// Error semantics follow the parallel package: when a node's Run fails, its
// transitive dependents are skipped (their inputs never materialized) but
// independent branches keep running; the returned error is the failure of
// the smallest node ID, with real errors displacing cancellations so
// fail-fast graphs report the cause rather than the cancellation it
// triggered.
func (g *Graph) Execute(workers int, mon Monitor) ([]NodeStat, error) {
	n := len(g.nodes)
	if n == 0 {
		return nil, nil
	}
	tr := NewTracker(g)
	w := workers
	if w <= 0 || w > n {
		w = n
	}

	var (
		mu    sync.Mutex
		cond  = sync.NewCond(&mu)
		ready readyHeap
	)
	stats := make([]NodeStat, n)
	start := time.Now()
	for _, nd := range g.nodes {
		stats[nd.id] = NodeStat{ID: nd.id, Label: nd.spec.Label, Worker: -1}
	}
	for _, id := range tr.InitialReady() {
		heap.Push(&ready, g.nodes[id])
	}

	var wg sync.WaitGroup
	wg.Add(w)
	for t := 0; t < w; t++ {
		worker := t
		go func() {
			defer wg.Done()
			var busy time.Duration
			tasks := 0
			joined := time.Now()
			mu.Lock()
			for {
				for len(ready) == 0 && !tr.Done() {
					cond.Wait()
				}
				if len(ready) == 0 {
					break
				}
				nd := heap.Pop(&ready).(*node)
				now := time.Since(start)
				stats[nd.id].Start = now
				stats[nd.id].Worker = worker
				if wm, ok := mon.(WaitMonitor); ok && mon != nil {
					wm.TaskWait(now - stats[nd.id].Ready)
				}
				// Dispatch releases the node's outgoing stream edges: its
				// stream consumers become runnable now and overlap with it,
				// reading chunks as the producer emits them.
				if rd, sk := tr.Dispatched(nd.id); len(rd) > 0 || len(sk) > 0 {
					for _, s := range sk {
						stats[s].Ready = now
						stats[s].Start = now
						stats[s].End = now
						stats[s].Skipped = true
					}
					for _, r := range rd {
						stats[r].Ready = now
						heap.Push(&ready, g.nodes[r])
					}
					cond.Broadcast()
				}
				mu.Unlock()

				t0 := time.Now()
				err := nd.spec.Run()
				busy += time.Since(t0)
				tasks++

				mu.Lock()
				end := time.Since(start)
				stats[nd.id].End = end
				rd, sk := tr.Complete(nd.id, err)
				for _, s := range sk {
					// Skipped: resolved without dispatch, cascading already
					// handled inside the tracker.
					stats[s].Ready = end
					stats[s].Start = end
					stats[s].End = end
					stats[s].Skipped = true
				}
				for _, r := range rd {
					stats[r].Ready = end
					heap.Push(&ready, g.nodes[r])
				}
				cond.Broadcast()
			}
			mu.Unlock()
			if mon != nil {
				idle := time.Since(joined) - busy
				if idle < 0 {
					idle = 0
				}
				mon.WorkerSpan(worker, busy, idle, tasks)
			}
		}()
	}
	wg.Wait()
	return stats, tr.Err()
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
