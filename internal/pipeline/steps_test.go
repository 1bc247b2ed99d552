package pipeline

import (
	"context"
	"testing"
	"time"

	"accelproc/internal/dataflow"
	"accelproc/internal/simsched"
)

// chargeStaged compiles the given plan steps over stations on the
// simulated platform, injects node costs (node i costs 1 + i%7 ms; barriers
// cost nothing) in place of host timing, and walks every barrier in order.
// It returns the graph, the serial sum of the injected costs and the
// virtual-clock correction the barriers charged.
func chargeStaged(t *testing.T, steps []planStep, stations []string, opts Options) (*stepGraph, time.Duration, time.Duration) {
	t.Helper()
	s, err := newState(context.Background(), t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.fail(nil) })
	c, err := s.compileSteps(steps, stations)
	if err != nil {
		t.Fatal(err)
	}
	var serial time.Duration
	for id := range c.durs {
		if c.g.Label(dataflow.NodeID(id)) != "barrier" {
			c.durs[id] = time.Duration(1+id%7) * time.Millisecond
			serial += c.durs[id]
		}
	}
	c.beginLayer(0, s.now())
	for i := range c.layers {
		c.endLayer(i)
	}
	return c, serial, s.virt
}

// TestStagedSimulatedChargeIsMakespanPerLayer pins the staged graph's shape
// and its simulated charge: with injected node costs, the barriers charge
// the virtual clock exactly the sum, over every barrier-closed layer, of
// simsched.Makespan of its unit costs in index order, with the widths and
// contention coefficients of the paper's OpenMP constructs.
func TestStagedSimulatedChargeIsMakespanPerLayer(t *testing.T) {
	stations := []string{"SS01", "SS02", "SS03"}
	opts := testOptions()
	opts.SimProcessors = 8
	c, serial, virt := chargeStaged(t, planOf(FullParallel)[1:], stations, opts)

	// A layer of the expected shape: the node count of each unit (a unit is
	// a chain, charged its sum), the width and the contention coefficient.
	type lay struct {
		units []int
		width int
		alpha float64
	}
	n, sig := len(stations), 3*len(stations)
	const w, meta = 8, 4 // SimProcessors (Workers = 0), MetaWorkers default
	io, cpu := simsched.ContentionIO, simsched.ContentionCPU
	each := func(k int) []int {
		u := make([]int, k)
		for i := range u {
			u[i] = 1
		}
		return u
	}
	one := lay{[]int{1}, 1, 0}
	// stage-in, install-exe (chained), execute, cleanup.
	temp := []lay{{each(n), w, io}, {[]int{n}, 1, 0}, {each(n), w, io}, {each(n), w, io}}
	want := [][]lay{
		{{each(4), meta, cpu}},                // II: four tasks
		{{each(n), w, io}},                    // III: station loop
		append(append([]lay{}, temp...), one), // IV: temp folders, max-values merge
		temp,                                  // V: temp folders
		{{each(sig), 3, cpu}, one},            // VI: component loop, corners write
		{one},                                 // VII
		append(append([]lay{}, temp...), one), // VIII: temp folders, max-values merge
		{{each(sig), w, cpu}},                 // IX: signal loop
		{{each(2 * sig), w, io}},              // X: V2/R file loop
		{{[]int{n, n, n}, meta, cpu}},         // XI: three plot tasks, chained per station
	}
	var expect time.Duration
	id := 0
	for _, step := range want {
		for _, l := range step {
			var costs []time.Duration
			for _, k := range l.units {
				var d time.Duration
				for ; k > 0; k-- {
					if c.g.Label(dataflow.NodeID(id)) == "barrier" {
						t.Fatalf("node %d is a barrier, want a unit node", id)
					}
					d += c.durs[id]
					id++
				}
				costs = append(costs, d)
			}
			expect += simsched.Makespan(costs, l.width, l.alpha)
			if id >= c.g.Len() || c.g.Label(dataflow.NodeID(id)) != "barrier" {
				t.Fatalf("node %d is %q, want the barrier closing a layer", id, c.g.Label(dataflow.NodeID(id)))
			}
			id++
		}
	}
	if id != c.g.Len() {
		t.Fatalf("graph has %d nodes, the expected layers %d", c.g.Len(), id)
	}
	if got := serial + virt; got != expect {
		t.Errorf("simulated charge %v, want Σ Makespan %v", got, expect)
	}

	// A sequential plan is one chained layer per step: no correction.
	_, _, virt = chargeStaged(t, planOf(SeqOriginal)[2:], stations, opts)
	if virt != 0 {
		t.Errorf("sequential plan charged a correction of %v", virt)
	}
}
