package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"accelproc/internal/dataflow"
	"accelproc/internal/faults"
	"accelproc/internal/obs"
	"accelproc/internal/storage"
)

// fleetOptions is testOptions with a small shared pool.
func fleetOptions(policy dataflow.Policy) FleetOptions {
	opts := testOptions()
	opts.Workers = 3
	return FleetOptions{Options: opts, Policy: policy}
}

// TestRunFleetMatchesIndividualRuns is the fleet byte-identity contract:
// whatever the policy interleaves, every event's products equal a standalone
// Pipelined run of the same inputs.
func TestRunFleetMatchesIndividualRuns(t *testing.T) {
	ref := prepareBatchDirs(t, 3)
	for _, d := range ref {
		if _, err := Run(context.Background(), d, Pipelined, testOptions()); err != nil {
			t.Fatal(err)
		}
	}
	for _, policy := range []dataflow.Policy{dataflow.Latency, dataflow.Throughput, dataflow.Balanced} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			dirs := prepareBatchDirs(t, 3)
			results, err := RunFleet(context.Background(), dirs, fleetOptions(policy))
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r.Dir != dirs[i] {
					t.Errorf("result %d dir = %s, want %s (order preserved)", i, r.Dir, dirs[i])
				}
				if r.Err != nil {
					t.Fatalf("event %d failed: %v", i, r.Err)
				}
				if r.Latency <= 0 || r.Result.Timings.Total <= 0 {
					t.Errorf("event %d missing timing: latency %v total %v", i, r.Latency, r.Result.Timings.Total)
				}
				want := productHashes(t, ref[i])
				got := productHashes(t, dirs[i])
				if len(got) != len(want) {
					t.Fatalf("event %d product count %d != %d", i, len(got), len(want))
				}
				for name, h := range want {
					if got[name] != h {
						t.Errorf("event %d product %s differs from standalone run", i, name)
					}
				}
			}
		})
	}
}

// TestRunFleetStreamingMatchesRun runs streamed events on a shared pool of
// two workers, where a stream consumer is released at its producer's
// dispatch and overlaps it: every event's products must equal its own
// streamed Run.
func TestRunFleetStreamingMatchesRun(t *testing.T) {
	streamed := testOptions()
	streamed.Streaming = true
	ref := prepareBatchDirs(t, 2)
	for _, d := range ref {
		if _, err := Run(context.Background(), d, Pipelined, streamed); err != nil {
			t.Fatal(err)
		}
	}
	dirs := prepareBatchDirs(t, 2)
	opts := fleetOptions(dataflow.Balanced)
	opts.Options = streamed
	opts.Workers = 2
	results, err := RunFleet(context.Background(), dirs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dirs {
		if results[i].Err != nil {
			t.Fatalf("event %d failed: %v", i, results[i].Err)
		}
		assertSameProducts(t, productHashes(t, dirs[i]), productHashes(t, ref[i]), fmt.Sprintf("event %d", i))
	}
}

// TestRunFleetMemBackendMatchesFS runs the fleet on the in-memory storage
// plane and checks the materialized products against the fs backend.
func TestRunFleetMemBackendMatchesFS(t *testing.T) {
	ref := prepareBatchDirs(t, 2)
	if _, err := RunFleet(context.Background(), ref, fleetOptions(dataflow.Balanced)); err != nil {
		t.Fatal(err)
	}
	dirs := prepareBatchDirs(t, 2)
	opts := fleetOptions(dataflow.Balanced)
	opts.Storage = storage.BackendMem
	results, err := RunFleet(context.Background(), dirs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dirs {
		if results[i].Err != nil {
			t.Fatalf("event %d failed on mem: %v", i, results[i].Err)
		}
		want := productHashes(t, ref[i])
		got := productHashes(t, dirs[i])
		for name, h := range want {
			if got[name] != h {
				t.Errorf("event %d product %s differs between backends", i, name)
			}
		}
	}
}

// TestRunFleetQuarantinePoisonedRecord reruns the poisoned-record batch
// scenario under the fleet scheduler on both storage backends: the poisoned
// record quarantines, its event still succeeds (degraded), siblings are
// untouched.
func TestRunFleetQuarantinePoisonedRecord(t *testing.T) {
	for _, backend := range []storage.Backend{storage.BackendFS, storage.BackendMem} {
		backend := backend
		t.Run(string(backend), func(t *testing.T) {
			dirs := prepareBatchDirs(t, 3)
			opts := fleetOptions(dataflow.Throughput)
			opts.Storage = backend
			opts.Observer = obs.New()
			opts.Retry = RetryPolicy{BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond}
			opts.Chaos = &faults.Config{Seed: 7, Rules: []faults.Rule{
				{Record: "SS02", Stage: "cor", Op: "exec", Kind: faults.KindPermanent},
			}}
			results, err := RunFleet(context.Background(), dirs, opts)
			if err != nil {
				t.Fatalf("degraded fleet failed outright: %v", err)
			}
			rep := BatchReport(results)
			if rep.Failed != 0 || rep.Succeeded != 3 {
				t.Fatalf("report events: %+v", rep)
			}
			if !rep.Degraded() {
				t.Error("report does not show degradation")
			}
			// SS02 exists in every event, so all three quarantine one record.
			if len(rep.Quarantined) != 3 {
				t.Fatalf("quarantined = %+v, want one SS02 per event", rep.Quarantined)
			}
			for _, q := range rep.Quarantined {
				if q.Station != "SS02" {
					t.Errorf("quarantined %+v, want SS02", q)
				}
			}
			if !errors.Is(rep.Err, &StageError{Record: "SS02"}) {
				t.Errorf("report Err does not match the poisoned record: %v", rep.Err)
			}
		})
	}
}

// TestRunFleetSimulatedPlatform drives RunFleet with SimProcessors: outputs
// must stay byte-identical to real runs while the timings come from the
// virtual fleet schedule.
func TestRunFleetSimulatedPlatform(t *testing.T) {
	ref := prepareBatchDirs(t, 2)
	for _, d := range ref {
		if _, err := Run(context.Background(), d, Pipelined, testOptions()); err != nil {
			t.Fatal(err)
		}
	}
	dirs := prepareBatchDirs(t, 2)
	opts := fleetOptions(dataflow.Throughput)
	opts.SimProcessors = 8
	results, err := RunFleet(context.Background(), dirs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("event %d: %v", i, r.Err)
		}
		if r.Latency <= 0 {
			t.Errorf("event %d virtual latency %v, want > 0", i, r.Latency)
		}
		if r.Result.Timings.Total < r.Latency {
			t.Errorf("event %d Total %v below virtual latency %v", i, r.Result.Timings.Total, r.Latency)
		}
		want := productHashes(t, ref[i])
		got := productHashes(t, dirs[i])
		for name, h := range want {
			if got[name] != h {
				t.Errorf("event %d product %s differs from real run", i, name)
			}
		}
	}
	// The second event cannot be admitted before the first on the virtual
	// clock (FIFO admission).
	if results[1].Wait < results[0].Wait {
		t.Errorf("admission out of order: waits %v, %v", results[0].Wait, results[1].Wait)
	}
}

// TestRunFleetWarmActionCache pins the "cache hit frees the slot" plumbing:
// a second fleet pass over the same directories with the persistent action
// cache restores nodes instead of recomputing them.
func TestRunFleetWarmActionCache(t *testing.T) {
	dirs := prepareBatchDirs(t, 2)
	opts := fleetOptions(dataflow.Balanced)
	opts.Cache = CacheConfig{Mode: CachePersistent}
	if _, err := RunFleet(context.Background(), dirs, opts); err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if err := CleanOutputs(d); err != nil {
			t.Fatal(err)
		}
	}
	results, err := RunFleet(context.Background(), dirs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("warm event %d: %v", i, r.Err)
		}
		if r.Result.Cache.ActionHits == 0 {
			t.Errorf("warm event %d had no action-cache hits: %+v", i, r.Result.Cache)
		}
	}
}

// TestRunFleetCanceledContextDrains: a canceled context must not wedge the
// shared pool — every event still flows through admission and reports the
// cancellation cause.
func TestRunFleetCanceledContextDrains(t *testing.T) {
	dirs := prepareBatchDirs(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunFleet(ctx, dirs, fleetOptions(dataflow.Balanced))
	if err == nil {
		t.Fatal("canceled fleet reported no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("fleet error %v does not wrap context.Canceled", err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3 (partial results must be populated)", len(results))
	}
	for i, r := range results {
		if r.Dir != dirs[i] {
			t.Errorf("result %d dir = %q", i, r.Dir)
		}
		if r.Err == nil {
			t.Errorf("event %d reported success under canceled ctx", i)
		}
	}
}

func TestRunFleetRejectsEmptyAndDuplicates(t *testing.T) {
	if _, err := RunFleet(context.Background(), nil, fleetOptions(dataflow.Balanced)); err == nil {
		t.Error("empty fleet accepted")
	}
	dirs := prepareBatchDirs(t, 1)
	if _, err := RunFleet(context.Background(), []string{dirs[0], dirs[0]}, fleetOptions(dataflow.Balanced)); err == nil {
		t.Error("duplicate directory accepted")
	}
}

// TestRunFleetRegistersGauges checks the scheduler's obs surface end to end.
func TestRunFleetRegistersGauges(t *testing.T) {
	dirs := prepareBatchDirs(t, 2)
	opts := fleetOptions(dataflow.Throughput)
	opts.Observer = obs.New()
	if _, err := RunFleet(context.Background(), dirs, opts); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := opts.Observer.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, m := range []string{"fleet_events_admitted_total 2", "fleet_events_completed_total 2", "fleet_queue_depth", "fleet_worker_busy_seconds_total"} {
		if !strings.Contains(text, m) {
			t.Errorf("metrics missing %q", m)
		}
	}
}
