package dataflow

import (
	"fmt"
	"runtime"
	"testing"
	"weak"
)

// TestRunReleasesFinishedJob pins the scheduler's retention contract: once a
// job's Finish returns, nothing the run holds reaches its graph.  Job 1's
// node closures capture a payload; job 2, admitted only after job 1 is done
// (Admit: 1), forces a collection from its Build and checks the payload is
// gone.  A popped node left in the ready heap's backing array, or a finished
// job still holding its tracker or Build/Finish closures, keeps it alive.
func TestRunReleasesFinishedJob(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var payload weak.Pointer[[1 << 16]byte]
			var ran, alive bool
			jobs := []Job{
				{Name: "first", Build: func() (*Graph, error) {
					p := new([1 << 16]byte)
					payload = weak.Make(p)
					g := New()
					var prev []NodeID
					for i := 0; i < 3; i++ {
						prev = []NodeID{g.Add(Spec{Label: fmt.Sprint(i), Weight: 1, Run: func() error {
							p[i]++
							return nil
						}}, prev...)}
					}
					return g, nil
				}},
				{Name: "second", Build: func() (*Graph, error) {
					runtime.GC()
					ran, alive = true, payload.Value() != nil
					return New(), nil
				}},
			}
			res := Run(jobs, Options{Workers: workers, Admit: 1})
			for _, r := range res {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Name, r.Err)
				}
			}
			if !ran {
				t.Fatal("second job never built")
			}
			if alive {
				t.Error("the first job's node payload is still reachable after its Finish returned")
			}
		})
	}
}
