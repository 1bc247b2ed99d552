package dataflow

import (
	"container/heap"
	"time"

	"accelproc/internal/simsched"
)

// SimJob is one job on the simulated platform: its graph, the serially
// measured per-node costs, and the measured cost of its Build prologue.
type SimJob struct {
	Name  string
	Graph *Graph
	// Durs holds each node's serially measured duration, indexed by NodeID.
	Durs []time.Duration
	// Build is the cost of the job's admission-time prologue (stage I and
	// graph construction), modeled as a single task on one worker; zero for
	// a job whose graph is ready at admission.
	Build time.Duration
}

// pending is one in-flight item in the simulator: a node, or the job's
// Build when node is nil.
type pending struct {
	fin  time.Duration
	job  *job
	node *node
}

// pendHeap orders in-flight items by finish time, with (job, node)
// tie-breaks so simultaneous completions resolve deterministically.
type pendHeap []pending

func (h pendHeap) Len() int { return len(h) }
func (h pendHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.fin != b.fin {
		return a.fin < b.fin
	}
	if a.job.idx != b.job.idx {
		return a.job.idx < b.job.idx
	}
	return b.node != nil && (a.node == nil || a.node.id < b.node.id)
}
func (h pendHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pendHeap) Push(x any)   { *h = append(*h, x.(pending)) }
func (h *pendHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Simulate runs Run's schedule on a virtual clock: the same admission,
// policy order and completion cascade, but with task costs taken from
// measured durations instead of executing bodies.  Node i of a job costs
// Durs[i] scaled by simsched.Slowdown(total nodes, workers, alpha_i), the
// contention model of the staged loops, with a per-node coefficient because
// a graph mixes compute-bound and I/O-bound nodes.  Results hold virtual
// offsets, and their node stats record Ready and End only.  On a graph
// without edges the makespan is simsched.Makespan's.
//
// Stream edges release at the producer's completion, not its dispatch: the
// serially measured consumer cost assumes its input was already buffered,
// so charging the producer's finish keeps the makespan an upper bound.
// The schedule is deterministic: dispatch uses the policy's total order and
// simultaneous completions resolve by (job, node).  Failures are out of
// scope — the simulated platform measures the healthy path.
func Simulate(jobs []SimJob, workers, admit int, policy Policy) []Result {
	w := max(workers, 1)
	if admit <= 0 {
		admit = policy.DefaultAdmit(w)
	}
	specs := make([]Job, len(jobs))
	total := 0
	for i, sj := range jobs {
		// No prebuilt graph: admission queues the job's Build item, which
		// the loop charges SimJob.Build for instead of calling.
		specs[i] = Job{Name: sj.Name}
		total += sj.Graph.Len()
	}
	r := newRun(specs, admit, policy, nil, nil)
	var now time.Duration
	r.clock = func() time.Duration { return now }
	var pend pendHeap
	free := w
	for {
		r.admitReady()
		for free > 0 {
			j, nd := r.pop()
			if j == nil {
				break
			}
			cost := jobs[j.idx].Build
			if nd != nil {
				slow := simsched.Slowdown(total, w, nd.spec.Alpha)
				cost = time.Duration(float64(jobs[j.idx].Durs[nd.id]) * slow)
			}
			heap.Push(&pend, pending{fin: now + cost, job: j, node: nd})
			free--
		}
		if pend.Len() == 0 {
			return r.res
		}
		p := heap.Pop(&pend).(pending)
		now = p.fin
		free++
		if p.node == nil {
			r.start(p.job, jobs[p.job.idx].Graph)
		} else {
			r.complete(p.job, p.node.id, nil, now)
		}
	}
}
