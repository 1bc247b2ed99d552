package pipeline

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"accelproc/internal/faults"
	"accelproc/internal/obs"
)

// The dataflow variant must be a pure scheduling change: same products, same
// robustness behaviour, different order.  These tests pin that equivalence
// against the fully-parallelized staged variant.

func TestPipelinedMatchesFullParallelOutputs(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	dirRef, _ := runVariant(t, ev, FullParallel, opts)
	ref := productHashes(t, dirRef)
	if len(ref) == 0 {
		t.Fatal("no products found")
	}
	dir, res := runVariant(t, ev, Pipelined, opts)
	got := productHashes(t, dir)
	if len(got) != len(ref) {
		t.Errorf("product count %d, want %d", len(got), len(ref))
	}
	for name, h := range ref {
		gh, ok := got[name]
		if !ok {
			t.Errorf("missing product %s", name)
			continue
		}
		if gh != h {
			t.Errorf("product %s differs from fully-parallelized", name)
		}
	}
	if len(res.Stations) != len(ev.Records) {
		t.Errorf("stations = %v", res.Stations)
	}
}

func TestPipelinedNoTempFoldersMatches(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	dirRef, _ := runVariant(t, ev, Pipelined, opts)
	ref := productHashes(t, dirRef)

	opts.NoTempFolders = true
	dir, _ := runVariant(t, ev, Pipelined, opts)
	got := productHashes(t, dir)
	if len(got) != len(ref) {
		t.Errorf("product count %d, want %d", len(got), len(ref))
	}
	for name, h := range ref {
		if got[name] != h {
			t.Errorf("product %s differs under the no-temp-folder ablation", name)
		}
	}
}

func TestPipelinedIsDeterministic(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	dirA, _ := runVariant(t, ev, Pipelined, opts)
	dirB, _ := runVariant(t, ev, Pipelined, opts)
	a, b := productHashes(t, dirA), productHashes(t, dirB)
	if len(a) != len(b) {
		t.Fatalf("product counts differ: %d vs %d", len(a), len(b))
	}
	for name, h := range a {
		if b[name] != h {
			t.Errorf("product %s differs between identical runs", name)
		}
	}
}

// TestPipelinedTargetedChaosMatchesFullParallel poisons one record with a
// deterministic rule and requires both scheduling disciplines to quarantine
// exactly that record, leave none of its products in the work directory, and
// produce byte-identical survivor products.  Rules match (stage, record, op)
// rather than an operation sequence, so they hit the same operation in both
// variants even though the dataflow executor reorders the work.
func TestPipelinedTargetedChaosMatchesFullParallel(t *testing.T) {
	cases := []struct {
		name  string
		rule  faults.Rule
		stage StageID
		proc  ProcessID
	}{
		{"def-stage-in", faults.Rule{Record: "SS01", Stage: "def", Op: "move", Kind: faults.KindPermanent}, StageIV, PDefaultFilter},
		{"fou-exec", faults.Rule{Record: "SS02", Stage: "fou", Op: "exec", Kind: faults.KindPermanent}, StageV, PFourier},
		{"cor-exec", faults.Rule{Record: "SS03", Stage: "cor", Op: "exec", Kind: faults.KindPermanent}, StageVIII, PCorrectedFilter},
	}
	ev := testEvent(t)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(v Variant) (map[string]string, Result) {
				opts := chaosOptions(0, 99)
				opts.Chaos.Rules = []faults.Rule{tc.rule}
				dir := filepath.Join(t.TempDir(), v.String())
				if err := PrepareWorkDir(dir, ev); err != nil {
					t.Fatal(err)
				}
				res, err := Run(context.Background(), dir, v, opts)
				if err != nil {
					t.Fatalf("%v: %v", v, err)
				}
				assertOnlyQuarantineDirs(t, dir, res)
				assertQuarantinedProducts(t, dir, v, tc.rule.Record, tc.proc)
				return chaosProductHashes(t, dir), res
			}
			ref, resF := run(FullParallel)
			got, resP := run(Pipelined)

			for _, res := range []Result{resF, resP} {
				if len(res.Quarantined) != 1 || res.Quarantined[0].Station != tc.rule.Record {
					t.Fatalf("quarantined = %+v, want exactly %s", res.Quarantined, tc.rule.Record)
				}
				q := res.Quarantined[0]
				if q.Stage != tc.stage || q.Process != tc.proc {
					t.Errorf("quarantine attributed to stage %v process #%d, want %v/#%d",
						q.Stage, q.Process, tc.stage, tc.proc)
				}
				if len(res.Stations) != len(ev.Records)-1 {
					t.Errorf("stations = %v", res.Stations)
				}
			}
			if len(got) != len(ref) {
				t.Errorf("product count %d, want %d", len(got), len(ref))
			}
			for name, h := range ref {
				if got[name] != h {
					t.Errorf("survivor product %s differs between variants", name)
				}
			}
		})
	}
}

// TestPipelinedRandomChaosSelfConsistent runs the dataflow variant under
// probabilistic fault injection.  The concurrent node order makes the random
// draw sequence — and hence which records die — schedule-dependent, so the
// invariant is self-consistency: whatever survives must be byte-identical to
// a fault-free run, and the quarantine bookkeeping must cover the rest.
func TestPipelinedRandomChaosSelfConsistent(t *testing.T) {
	ev := testEvent(t)
	cleanDir, _ := runVariant(t, ev, Pipelined, testOptions())
	cleanHashes := productHashes(t, cleanDir)

	for _, rate := range []float64{0.05, 0.20} {
		rate := rate
		t.Run(fmt.Sprintf("rate=%v", rate), func(t *testing.T) {
			opts := chaosOptions(rate, 1234)
			dir := filepath.Join(t.TempDir(), "chaos")
			if err := PrepareWorkDir(dir, ev); err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), dir, Pipelined, opts)
			if err != nil {
				t.Fatalf("chaos run at rate %v failed outright: %v", rate, err)
			}
			assertOnlyQuarantineDirs(t, dir, res)

			quarantined := make(map[string]bool)
			for _, q := range res.Quarantined {
				quarantined[q.Station] = true
			}
			if len(res.Stations)+len(quarantined) != len(ev.Records) {
				t.Errorf("stations %v + quarantined %v do not cover the event",
					res.Stations, res.Quarantined)
			}

			got := chaosProductHashes(t, dir)
			for name, h := range cleanHashes {
				if strings.HasSuffix(name, ".meta") {
					continue
				}
				st := name[:4] // stations are SS01..SS03
				if quarantined[st] {
					continue
				}
				if got[name] != h {
					t.Errorf("survivor product %s differs from fault-free run", name)
				}
			}

			o := opts.Observer
			if v := int(o.Counter("records_quarantined").Value()); v != len(res.Quarantined) {
				t.Errorf("records_quarantined metric %d != %d", v, len(res.Quarantined))
			}
		})
	}
}

func TestPipelinedSimulatedPlatform(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	dirRef, _ := runVariant(t, ev, FullParallel, opts)
	ref := productHashes(t, dirRef)

	sim := opts
	sim.SimProcessors = 8
	dir, _ := runVariant(t, ev, Pipelined, sim)
	got := productHashes(t, dir)
	for name, h := range ref {
		if got[name] != h {
			t.Errorf("product %s differs on the simulated platform", name)
		}
	}
	pipe, seq := bestSimulatedTotals(t, ev, sim, Pipelined, SeqOriginal)
	if pipe >= seq {
		t.Errorf("simulated Pipelined %v >= SeqOriginal %v", pipe, seq)
	}
}

// TestPipelinedEmitsDataflowTelemetry pins the scheduler's observability
// contract: one node span per graph node under the run span, a worker pool
// reporting under the "dataflow" scope, the ready-queue wait histogram, and
// the barrier-wait-eliminated gauge.
func TestPipelinedEmitsDataflowTelemetry(t *testing.T) {
	ev := testEvent(t)
	col := &obs.Collector{}
	opts := testOptions()
	opts.Observer = obs.New(col)
	_, res := runVariant(t, ev, Pipelined, opts)

	// Node count: 5 event-global processes, 10 per-record processes over 3
	// stations, and 3 join nodes (#4, #10, #13 write global artifacts).
	const wantNodes = 5 + 10*3 + 3

	nodeSpans := 0
	for _, rec := range col.Records() {
		if rec.Kind == obs.KindTask && strings.HasPrefix(rec.Name, "node:") {
			nodeSpans++
		}
	}
	if nodeSpans != wantNodes {
		t.Errorf("node spans = %d, want %d", nodeSpans, wantNodes)
	}

	o := opts.Observer
	if v := int(o.Counter("dataflow_worker_tasks_total").Value()); v != wantNodes {
		t.Errorf("dataflow_worker_tasks_total = %d, want %d", v, wantNodes)
	}
	if c := o.Histogram("dataflow_ready_queue_wait_seconds", nil).Count(); c != wantNodes {
		t.Errorf("ready-queue wait observations = %d, want %d", c, wantNodes)
	}
	if v := o.Gauge("dataflow_barrier_wait_eliminated_seconds").Value(); v < 0 {
		t.Errorf("barrier_wait_eliminated = %v, want >= 0", v)
	}
	if o.Counter("dataflow_worker_busy_seconds_total").Value() <= 0 {
		t.Error("dataflow worker pool reported no busy time")
	}

	// Every stage of the schedule still gets a timing entry (the sum of its
	// nodes' costs), so per-stage tables include the dataflow variant.
	for _, st := range Stages {
		if res.Timings.Stage[st.ID] <= 0 {
			t.Errorf("stage %v has no recorded time", st.ID)
		}
		for _, p := range st.Processes {
			if res.Timings.Process[p] <= 0 {
				t.Errorf("process #%d has no recorded time", p)
			}
		}
	}
}

// TestPipelinedParseVariant covers the new spellings.
func TestPipelinedParseVariant(t *testing.T) {
	for _, name := range []string{"pipelined", "pipe", "dataflow"} {
		v, err := ParseVariant(name)
		if err != nil || v != Pipelined {
			t.Errorf("ParseVariant(%q) = %v, %v", name, v, err)
		}
	}
	if Pipelined.String() != "pipelined" {
		t.Errorf("Pipelined.String() = %q", Pipelined.String())
	}
}
