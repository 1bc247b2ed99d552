package dataflow

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelproc/internal/obs"
	"accelproc/internal/simsched"
)

// chainEvent returns a Job whose graph is a chain of n nodes; every node
// appends "<name>:<i>" to order under mu.
func chainEvent(name string, n int, weight float64, mu *sync.Mutex, order *[]string) Job {
	return Job{
		Name: name,
		Build: func() (*Graph, error) {
			mu.Lock()
			*order = append(*order, name+":build")
			mu.Unlock()
			g := New()
			var prev []NodeID
			for i := 0; i < n; i++ {
				i := i
				id := g.Add(Spec{
					Label:  fmt.Sprintf("%s:%d", name, i),
					Weight: weight,
					Run: func() error {
						mu.Lock()
						*order = append(*order, fmt.Sprintf("%s:%d", name, i))
						mu.Unlock()
						return nil
					},
				}, prev...)
				prev = []NodeID{id}
			}
			return g, nil
		},
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"", Balanced}, {"balanced", Balanced}, {"latency", Latency}, {"throughput", Throughput}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("Policy(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy(bogus) did not fail")
	}
}

func TestRunExecutesEveryEvent(t *testing.T) {
	for _, policy := range []Policy{Balanced, Latency, Throughput} {
		t.Run(policy.String(), func(t *testing.T) {
			var mu sync.Mutex
			var order []string
			var finished atomic.Int32
			events := make([]Job, 5)
			for i := range events {
				ev := chainEvent(fmt.Sprintf("ev%d", i), 3, 1, &mu, &order)
				ev.Finish = func(err error) error {
					finished.Add(1)
					return err
				}
				events[i] = ev
			}
			res := Run(events, Options{Workers: 3, Policy: policy})
			if len(res) != 5 {
				t.Fatalf("results = %d, want 5", len(res))
			}
			for i, r := range res {
				if r.Err != nil {
					t.Errorf("event %d: %v", i, r.Err)
				}
				if r.Name != fmt.Sprintf("ev%d", i) {
					t.Errorf("event %d name = %q", i, r.Name)
				}
				if r.Done < r.Admitted {
					t.Errorf("event %d Done %v < Admitted %v", i, r.Done, r.Admitted)
				}
			}
			if finished.Load() != 5 {
				t.Errorf("Finish ran %d times, want 5", finished.Load())
			}
			mu.Lock()
			n := len(order)
			mu.Unlock()
			if n != 5*4 { // build + 3 nodes per event
				t.Errorf("executed %d units, want 20", n)
			}
		})
	}
}

// TestRunPolicyScheduleSingleWorker pins the full dispatch order at one
// worker for each policy, twice, so the scheduler's total order is both the
// documented one and reproducible.
func TestRunPolicyScheduleSingleWorker(t *testing.T) {
	build := func(policy Policy) []string {
		var mu sync.Mutex
		var order []string
		events := []Job{
			chainEvent("a", 2, 1, &mu, &order), // light
			chainEvent("b", 2, 5, &mu, &order), // heavy: higher critical path
		}
		Run(events, Options{Workers: 1, Admit: 2, Policy: policy})
		return order
	}
	want := map[Policy][]string{
		// Oldest event first, to completion, before the next build runs.
		Latency: {"a:build", "a:0", "a:1", "b:build", "b:0", "b:1"},
		// Builds drain first (infinite priority), then the merged ready set
		// critical-path-first: b's chain outweighs a's.
		Throughput: {"a:build", "b:build", "b:0", "b:1", "a:0", "a:1"},
		// The oldest open event is protected even against heavier siblings.
		Balanced: {"a:build", "a:0", "a:1", "b:build", "b:0", "b:1"},
	}
	for policy, w := range want {
		first := build(policy)
		if !reflect.DeepEqual(first, w) {
			t.Errorf("%v schedule = %v, want %v", policy, first, w)
		}
		if again := build(policy); !reflect.DeepEqual(again, first) {
			t.Errorf("%v schedule not reproducible: %v then %v", policy, first, again)
		}
	}
}

func TestRunAdmissionCap(t *testing.T) {
	var open, maxOpen atomic.Int32
	events := make([]Job, 6)
	for i := range events {
		name := fmt.Sprintf("ev%d", i)
		events[i] = Job{
			Name: name,
			Build: func() (*Graph, error) {
				if o := open.Add(1); o > maxOpen.Load() {
					maxOpen.Store(o)
				}
				g := New()
				g.Add(Spec{Label: name, Weight: 1, Run: func() error {
					time.Sleep(time.Millisecond)
					return nil
				}})
				return g, nil
			},
			Finish: func(err error) error {
				open.Add(-1)
				return err
			},
		}
	}
	Run(events, Options{Workers: 4, Admit: 2, Policy: Throughput})
	if m := maxOpen.Load(); m > 2 {
		t.Fatalf("max concurrently-open events = %d, want <= 2", m)
	}
}

func TestRunBuildFailureIsPerEvent(t *testing.T) {
	boom := errors.New("prologue failed")
	var mu sync.Mutex
	var order []string
	events := []Job{
		{Name: "bad", Build: func() (*Graph, error) { return nil, boom }},
		chainEvent("good", 2, 1, &mu, &order),
	}
	res := Run(events, Options{Workers: 2})
	if !errors.Is(res[0].Err, boom) {
		t.Errorf("bad event Err = %v, want boom", res[0].Err)
	}
	if res[1].Err != nil {
		t.Errorf("good event Err = %v, want nil", res[1].Err)
	}
}

func TestRunNodeFailureReachesFinish(t *testing.T) {
	boom := errors.New("node failed")
	var got error
	ev := Job{
		Name: "ev",
		Build: func() (*Graph, error) {
			g := New()
			a := g.Add(Spec{Label: "a", Weight: 1, Run: func() error { return boom }})
			g.Add(Spec{Label: "b", Weight: 1, Run: func() error {
				t.Error("dependent of failed node ran")
				return nil
			}}, a)
			return g, nil
		},
		Finish: func(err error) error {
			got = err
			return fmt.Errorf("wrapped: %w", err)
		},
	}
	res := Run([]Job{ev}, Options{Workers: 2})
	if !errors.Is(got, boom) {
		t.Errorf("Finish received %v, want boom", got)
	}
	if res[0].Err == nil || !errors.Is(res[0].Err, boom) || !strings.Contains(res[0].Err.Error(), "wrapped") {
		t.Errorf("Result.Err = %v, want wrapped boom", res[0].Err)
	}
}

func TestRunEmptyGraphEvent(t *testing.T) {
	res := Run([]Job{{
		Name:  "empty",
		Build: func() (*Graph, error) { return New(), nil },
	}}, Options{Workers: 2})
	if res[0].Err != nil {
		t.Fatalf("empty-graph event Err = %v", res[0].Err)
	}
}

func TestRunRegistersSchedulerMetrics(t *testing.T) {
	o := obs.New()
	var mu sync.Mutex
	var order []string
	Run([]Job{chainEvent("ev", 3, 1, &mu, &order)}, Options{Workers: 2, Observer: o})
	var sb strings.Builder
	o.WritePrometheus(&sb)
	text := sb.String()
	for _, m := range []string{"fleet_events_admitted_total 1", "fleet_events_completed_total 1", "fleet_worker_tasks_total"} {
		if !strings.Contains(text, m) {
			t.Errorf("metrics missing %q", m)
		}
	}
}

// simChainEvents builds n identical SimJobs, each a fan-out of width
// parallel nodes costing dur, with a build prologue.
func simChainEvents(n, width int, dur, build time.Duration) []SimJob {
	events := make([]SimJob, n)
	for i := range events {
		g := New()
		durs := make([]time.Duration, width)
		for j := 0; j < width; j++ {
			g.Add(Spec{Label: fmt.Sprintf("n%d", j), Weight: 1, Run: func() error { return nil }})
			durs[j] = dur
		}
		events[i] = SimJob{Name: fmt.Sprintf("ev%d", i), Graph: g, Durs: durs, Build: build}
	}
	return events
}

func simMakespan(res []Result) time.Duration {
	var m time.Duration
	for _, r := range res {
		if r.Done > m {
			m = r.Done
		}
	}
	return m
}

// TestSimulateEdgeFreeMatchesMakespan ties the event-driven simulator to the
// staged loops' model: on a graph without edges, whose equal weights keep
// insertion order, a one-job Simulate with no build cost is
// simsched.Makespan — for fewer nodes than workers, as many, and more.
func TestSimulateEdgeFreeMatchesMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const workers = 4
	for _, n := range []int{3, workers, 11} {
		for _, alpha := range []float64{simsched.ContentionCPU, simsched.ContentionIO} {
			g := New()
			durs := make([]time.Duration, n)
			for i := range durs {
				durs[i] = time.Duration(rng.Intn(1000)+1) * time.Microsecond
				g.Add(Spec{Label: fmt.Sprintf("n%d", i), Weight: 1, Alpha: alpha, Run: noop})
			}
			want := simsched.Makespan(durs, workers, alpha)
			if got := Simulate([]SimJob{{Name: "ev", Graph: g, Durs: durs}}, workers, 1, Throughput)[0].Done; got != want {
				t.Errorf("n=%d alpha=%g: Simulate %v != simsched.Makespan %v", n, alpha, got, want)
			}
		}
	}
}

// TestSimulatePolicyTradeoff pins the bi-criteria behavior the policies
// exist for: throughput packs the pool and finishes the queue sooner, while
// latency keeps every event's admission-to-done latency at the single-event
// optimum.
func TestSimulatePolicyTradeoff(t *testing.T) {
	const workers = 4
	events := simChainEvents(8, workers, 10*time.Millisecond, time.Millisecond)
	single := simMakespan(Simulate(events[:1], workers, 1, Latency))

	lat := Simulate(events, workers, 0, Latency)
	thr := Simulate(events, workers, 0, Throughput)
	bal := Simulate(events, workers, 0, Balanced)

	if m := simMakespan(thr); m >= simMakespan(lat) {
		t.Errorf("throughput makespan %v not below latency makespan %v", m, simMakespan(lat))
	}
	for i, r := range lat {
		if r.Latency() != single {
			t.Errorf("latency policy event %d latency %v != single-event makespan %v", i, r.Latency(), single)
		}
	}
	if m := simMakespan(bal); m > simMakespan(lat) {
		t.Errorf("balanced makespan %v exceeds latency makespan %v", m, simMakespan(lat))
	}
	// Deterministic replay.
	if again := Simulate(events, workers, 0, Throughput); !reflect.DeepEqual(again, thr) {
		t.Error("Simulate not deterministic")
	}
}
