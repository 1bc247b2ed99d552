package dataflow

// tracker is the incremental ready-state machine of one job's graph.  It
// answers one question after every dispatch and every completion: which
// nodes became runnable, and which were resolved as skipped because an
// ancestor failed.  It carries the error-selection contract of Execute
// (real errors displace cancellations, smallest NodeID wins).
//
// A tracker is not safe for concurrent use; the scheduler serializes it
// under its lock.  The graph must not be mutated after newTracker.
type tracker struct {
	g        *Graph
	indeg    []int
	failed   []bool // node failed or was transitively skipped
	released []bool // node's outgoing stream edges already released
	resolved int
	err      error
	errID    NodeID
}

// newTracker prepares g for incremental execution: priorities are computed
// and per-node indegrees captured.
func newTracker(g *Graph) *tracker {
	g.prioritize()
	t := &tracker{
		g:        g,
		indeg:    make([]int, len(g.nodes)),
		failed:   make([]bool, len(g.nodes)),
		released: make([]bool, len(g.nodes)),
		errID:    -1,
	}
	for _, nd := range g.nodes {
		t.indeg[nd.id] = len(nd.deps) + len(nd.sdeps)
	}
	return t
}

// initialReady returns the nodes runnable before any completion — those
// with no dependencies — in ascending NodeID order.
func (t *tracker) initialReady() []NodeID {
	var ready []NodeID
	for _, nd := range t.g.nodes {
		if len(nd.deps) == 0 && len(nd.sdeps) == 0 {
			ready = append(ready, nd.id)
		}
	}
	return ready
}

// dispatched records that a worker started running node id, releasing its
// outgoing stream edges: stream consumers whose last pending dependency was
// the producer's dispatch become runnable now and overlap with it.  The
// simulator never reports dispatch, because its costs were measured
// serially; complete then releases the stream edges, in strict order.
//
// A released consumer may still resolve as skipped when another of its
// ancestors already failed; such nodes are returned in skipped with the
// usual transitive cascade and must not be dispatched.
func (t *tracker) dispatched(id NodeID) (ready, skipped []NodeID) {
	if t.released[id] {
		return nil, nil
	}
	t.released[id] = true
	for _, c := range t.g.nodes[id].schildren {
		ready, skipped = t.decrement(c, false, ready, skipped)
	}
	return ready, skipped
}

// complete records that node id finished with err (nil = success) and
// returns the nodes that became runnable plus the nodes resolved as skipped
// — dependents of a failure whose last dependency just resolved.  Skipped
// nodes count as resolved without ever being returned as ready; the caller
// must not dispatch them.  The skip cascade is transitive, so one complete
// call can skip an arbitrarily deep chain.
func (t *tracker) complete(id NodeID, err error) (ready, skipped []NodeID) {
	return t.resolve(id, err, nil, nil)
}

func (t *tracker) resolve(id NodeID, err error, ready, skipped []NodeID) ([]NodeID, []NodeID) {
	t.resolved++
	if err != nil {
		t.failed[id] = true
		if better(err, id, t.err, t.errID) {
			t.err, t.errID = err, id
		}
	}
	for _, c := range t.g.nodes[id].children {
		ready, skipped = t.decrement(c, t.failed[id], ready, skipped)
	}
	if !t.released[id] {
		// The node never dispatched (it was skipped, or the simulator drives
		// completions only): release its stream edges here, with the same
		// failure propagation as artifact edges — a consumer whose producer
		// never ran has no stream to read.  Edges already released at
		// dispatch skip this; their consumers observe a producer failure
		// through the stream itself.
		t.released[id] = true
		for _, c := range t.g.nodes[id].schildren {
			ready, skipped = t.decrement(c, t.failed[id], ready, skipped)
		}
	}
	return ready, skipped
}

// decrement resolves one incoming edge of c, marking c failed when its
// producer failed, and files c as ready or skipped once its last edge
// resolves.
func (t *tracker) decrement(c NodeID, failed bool, ready, skipped []NodeID) ([]NodeID, []NodeID) {
	t.indeg[c]--
	if failed {
		t.failed[c] = true
	}
	if t.indeg[c] > 0 {
		return ready, skipped
	}
	if t.failed[c] {
		return t.resolve(c, nil, ready, append(skipped, c))
	}
	return append(ready, c), skipped
}

// done reports whether every node has finished, failed, or been skipped.
func (t *tracker) done() bool { return t.resolved == len(t.g.nodes) }
