package pipeline

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"accelproc/internal/obs"
)

// collectTrace runs one variant with a collector attached and returns the
// result plus the finished spans.
func collectTrace(t *testing.T, v Variant, opts Options) (Result, []obs.SpanRecord) {
	t.Helper()
	col := &obs.Collector{}
	opts.Observer = obs.New(col)
	dir := filepath.Join(t.TempDir(), v.String())
	if err := PrepareWorkDir(dir, testEvent(t)); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), dir, v, opts)
	if err != nil {
		t.Fatalf("%v: %v", v, err)
	}
	return res, col.Records()
}

// TestSpanTreeMatchesTimings is the acceptance invariant: the span tree has
// one run root, stage spans nest directly under it, process spans nest under
// stages, and the charged stage durations agree with Result.Timings.
func TestSpanTreeMatchesTimings(t *testing.T) {
	for _, sim := range []int{0, 8} {
		name := "real"
		if sim > 0 {
			name = "simulated"
		}
		t.Run(name, func(t *testing.T) {
			opts := testOptions()
			opts.SimProcessors = sim
			res, recs := collectTrace(t, FullParallel, opts)

			var run obs.SpanRecord
			runs := 0
			stageIDs := map[int64]StageID{}
			for _, r := range recs {
				switch r.Kind {
				case obs.KindRun:
					run = r
					runs++
				}
			}
			if runs != 1 {
				t.Fatalf("run spans = %d, want 1", runs)
			}
			if run.Duration != res.Timings.Total {
				t.Errorf("run span %v != Timings.Total %v", run.Duration, res.Timings.Total)
			}

			stageSum := map[StageID]time.Duration{}
			for _, r := range recs {
				if r.Kind != obs.KindStage {
					continue
				}
				if r.Parent != run.ID {
					t.Errorf("stage span %q not nested under the run span", r.Name)
				}
				id, ok := r.IntAttr("stage")
				if !ok {
					t.Fatalf("stage span %q has no stage attr", r.Name)
				}
				stageSum[StageID(id)] += r.Duration
				stageIDs[r.ID] = StageID(id)
			}
			if len(stageSum) != NumStages {
				t.Fatalf("distinct stages = %d, want %d", len(stageSum), NumStages)
			}
			var total time.Duration
			for _, st := range Stages {
				got, want := stageSum[st.ID], res.Timings.Stage[st.ID]
				if got != want {
					t.Errorf("stage %v spans sum to %v, Timings say %v", st.ID, got, want)
				}
				total += got
			}
			// The per-stage sums must account for (almost) the whole run:
			// only inter-stage bookkeeping may fall outside stage spans.
			if ratio := float64(total) / float64(res.Timings.Total); ratio < 0.95 || ratio > 1.05 {
				t.Errorf("stage sum / total = %.3f, want within 5%%", ratio)
			}

			// Every process span hangs off a stage span (or the run span for
			// the out-of-stage redundant processes, absent in this variant).
			for _, r := range recs {
				if r.Kind != obs.KindProcess {
					continue
				}
				if _, ok := stageIDs[r.Parent]; !ok && r.Parent != run.ID {
					t.Errorf("process span %q has unknown parent %d", r.Name, r.Parent)
				}
			}
		})
	}
}

func TestRunRecordsThroughputMetrics(t *testing.T) {
	col := &obs.Collector{}
	o := obs.New(col)
	opts := testOptions()
	opts.Observer = o
	ev := testEvent(t)
	dir := filepath.Join(t.TempDir(), "w")
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), dir, FullParallel, opts); err != nil {
		t.Fatal(err)
	}
	// One corrected record per (station, component) pair.
	if got := o.Counter("records_processed_total").Value(); got != float64(3*len(ev.Records)) {
		t.Errorf("records_processed_total = %g, want %d", got, 3*len(ev.Records))
	}
	if o.Counter("bytes_staged_in_total").Value() <= 0 {
		t.Error("bytes_staged_in_total not counted")
	}
	if o.Counter("bytes_staged_out_total").Value() <= 0 {
		t.Error("bytes_staged_out_total not counted")
	}
	if occ := o.Gauge("pipeline_worker_occupancy").Value(); occ <= 0 || occ > 1 {
		t.Errorf("pipeline_worker_occupancy = %g", occ)
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	if err := PrepareWorkDir(dir, testEvent(t)); err != nil {
		t.Fatal(err)
	}
	_, err := Run(ctx, dir, FullParallel, testOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	assertNoScratchDirs(t, dir)
}

// cancelOnStageIn cancels the run context as soon as the first temp-folder
// stage-in step finishes, so cancellation lands mid-protocol with scratch
// directories already on disk.
type cancelOnStageIn struct{ cancel context.CancelFunc }

func (c cancelOnStageIn) Record(rec obs.SpanRecord) {
	if rec.Kind == obs.KindTask && rec.Name == "stage-in" {
		c.cancel()
	}
}

func TestRunBatchCancellationLeavesNoTempFolders(t *testing.T) {
	dirs := prepareBatchDirs(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := batchOptions(1)
	opts.Observer = obs.New(cancelOnStageIn{cancel})

	results, err := RunBatch(ctx, dirs, FullParallel, opts)
	if err == nil {
		t.Fatal("cancelled batch reported no error")
	}
	cancelled := 0
	for _, r := range results {
		if r.Err != nil {
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("dir %s failed with %v, want context.Canceled", r.Dir, r.Err)
			}
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no event observed the cancellation")
	}
	for _, dir := range dirs {
		assertNoScratchDirs(t, dir)
	}
	// The abort-path cleanup must have succeeded silently: the
	// scratch_cleanup_errors counter only moves when a removal fails.
	if v := opts.Observer.Counter("scratch_cleanup_errors").Value(); v != 0 {
		t.Errorf("scratch_cleanup_errors = %v after clean cancellation, want 0", v)
	}
}

// assertNoScratchDirs fails if any temp-folder scratch directory survived.
func assertNoScratchDirs(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "tmp_") {
			t.Errorf("orphaned scratch directory %s in %s", e.Name(), dir)
		}
	}
}

func TestParseVariant(t *testing.T) {
	cases := map[string]Variant{
		"seq-original":           SeqOriginal,
		"sequential-original":    SeqOriginal,
		"seq":                    SeqOriginal,
		"seq-optimized":          SeqOptimized,
		"sequential-optimized":   SeqOptimized,
		"opt":                    SeqOptimized,
		"partial":                PartialParallel,
		"partially-parallelized": PartialParallel,
		"full":                   FullParallel,
		"fully-parallelized":     FullParallel,
		"  Full ":                FullParallel, // trimmed, case-folded
	}
	for in, want := range cases {
		got, err := ParseVariant(in)
		if err != nil || got != want {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseVariant("bogus"); err == nil {
		t.Error("bogus variant accepted")
	}
	// Every canonical String() name must round-trip.
	for _, v := range Variants {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Errorf("round-trip %v failed: %v, %v", v, got, err)
		}
	}
}

// TestStagedPoolReportsSlotWaitsAsIdle runs a staged graph whose loop
// layers are narrower than its pool (Workers 1 under a task width of 2):
// the goroutine held at a loop layer's bound does no work, so the worker
// busy time must stay near the run's wall time instead of doubling.
func TestStagedPoolReportsSlotWaitsAsIdle(t *testing.T) {
	opts := testOptions()
	opts.Workers, opts.MetaWorkers = 1, 2
	col := &obs.Collector{}
	opts.Observer = obs.New(col)
	dir := filepath.Join(t.TempDir(), "w")
	if err := PrepareWorkDir(dir, testEvent(t)); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), dir, FullParallel, opts)
	if err != nil {
		t.Fatal(err)
	}
	busy := opts.Observer.Counter("pipeline_worker_busy_seconds_total").Value()
	if total := res.Timings.Total.Seconds(); busy > 1.5*total {
		t.Errorf("worker busy %.3fs over a %.3fs run: slot waits counted as work", busy, total)
	}
	if occ := opts.Observer.Gauge("pipeline_worker_occupancy").Value(); occ <= 0 || occ > 1 {
		t.Errorf("pipeline_worker_occupancy = %g", occ)
	}
}
