package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accelproc/internal/pipeline"
	"accelproc/internal/synth"
)

func makeWorkDir(t *testing.T, seed int64) string {
	t.Helper()
	ev, err := synth.Event(synth.EventSpec{
		Name: "t", Files: 2, TotalPoints: 1600, Magnitude: 4.8, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "work")
	if err := pipeline.PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunSingleDirectory(t *testing.T) {
	dir := makeWorkDir(t, 1)
	var out bytes.Buffer
	err := run(context.Background(), []string{"-dir", dir, "-variant", "full", "-periods", "8"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"processed 2 stations", "stage IX", "products: 6 V2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunCleanRerun(t *testing.T) {
	dir := makeWorkDir(t, 2)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-dir", dir, "-periods", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(context.Background(), []string{"-dir", dir, "-clean", "-variant", "seq-optimized", "-periods", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sequential-optimized") {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunBatchMode(t *testing.T) {
	d1 := makeWorkDir(t, 3)
	d2 := makeWorkDir(t, 4)
	var out bytes.Buffer
	err := run(context.Background(), []string{"-batch", d1 + ", " + d2, "-periods", "8"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "batch: 2 events") {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunFlagValidation(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, nil, &out); err == nil {
		t.Error("missing -dir and -batch accepted")
	}
	if err := run(ctx, []string{"-dir", "a", "-batch", "b"}, &out); err == nil {
		t.Error("both -dir and -batch accepted")
	}
	if err := run(ctx, []string{"-dir", "x", "-variant", "bogus"}, &out); err == nil {
		t.Error("bogus variant accepted")
	}
	if err := run(ctx, []string{"-dir", "x", "-method", "bogus"}, &out); err == nil {
		t.Error("bogus method accepted")
	}
	if err := run(ctx, []string{"-dir", filepath.Join(t.TempDir(), "missing")}, &out); err == nil {
		t.Error("missing directory accepted")
	}
}

func TestParseInstrument(t *testing.T) {
	in, err := parseInstrument("25,0.7")
	if err != nil || in.F0 != 25 || in.Damping != 0.7 {
		t.Errorf("parseInstrument = %+v, %v", in, err)
	}
	for _, bad := range []string{"", "25", "x,y", "0,0.7", "25,3"} {
		if _, err := parseInstrument(bad); err == nil {
			t.Errorf("parseInstrument(%q) accepted", bad)
		}
	}
}

func TestRunWithInstrumentFlag(t *testing.T) {
	dir := makeWorkDir(t, 5)
	var out bytes.Buffer
	err := run(context.Background(), []string{"-dir", dir, "-periods", "8", "-instrument", "25,0.7"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "processed 2 stations") {
		t.Errorf("output = %q", out.String())
	}
	if err := run(context.Background(), []string{"-dir", dir, "-instrument", "garbage"}, &out); err == nil {
		t.Error("bad instrument flag accepted")
	}
}

func TestRunVerbose(t *testing.T) {
	dir := makeWorkDir(t, 6)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-dir", dir, "-periods", "8", "-verbose", "-variant", "seq-optimized"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"#1 ", "gather input data files", "response spectrum calculation"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("verbose output missing %q", want)
		}
	}
}

// TestRunTraceAndMetrics is the acceptance check of the observability
// layer's CLI wiring: -trace writes a span tree whose stage durations, plus
// the run's finalize epilogue, sum to within 5% of the run total, and
// -metrics writes a Prometheus exposition with the pipeline counters.
func TestRunTraceAndMetrics(t *testing.T) {
	dir := makeWorkDir(t, 7)
	tracePath := filepath.Join(t.TempDir(), "out.jsonl")
	metricsPath := filepath.Join(t.TempDir(), "metrics.txt")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-dir", dir, "-variant", "full", "-periods", "8",
		"-trace", tracePath, "-metrics", metricsPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		DurUS  int64  `json:"dur_us"`
	}
	var lines []line
	for _, raw := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var l line
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("bad trace line %s: %v", raw, err)
		}
		lines = append(lines, l)
	}
	var runID, runDur, stageSum int64
	runs, stages := 0, 0
	for _, l := range lines {
		switch l.Kind {
		case "run":
			runs++
			runID, runDur = l.ID, l.DurUS
		case "stage":
			stages++
			stageSum += l.DurUS
		}
	}
	finalized := false
	for _, l := range lines {
		if l.Kind == "task" && l.Name == "finalize" && l.Parent == runID {
			finalized = true
			stageSum += l.DurUS
		}
	}
	if runs != 1 {
		t.Fatalf("trace has %d run spans, want 1", runs)
	}
	if stages != pipeline.NumStages {
		t.Fatalf("trace has %d stage spans, want %d", stages, pipeline.NumStages)
	}
	if !finalized {
		t.Fatal("trace has no finalize span under the run span")
	}
	if runDur <= 0 {
		t.Fatalf("run span duration %d", runDur)
	}
	ratio := float64(stageSum) / float64(runDur)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("stage durations sum to %.1f%% of the run span, want within 5%%", ratio*100)
	}

	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE records_processed_total counter",
		"bytes_staged_in_total",
		"bytes_staged_out_total",
		"pipeline_worker_occupancy",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, metrics)
		}
	}
}

func TestRunWithChaosFlags(t *testing.T) {
	dir := makeWorkDir(t, 9)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-dir", dir, "-variant", "full", "-periods", "8", "-chaos", "0.05", "-chaos-seed", "3",
	}, &out)
	// A chaotic run may quarantine records; that is the documented
	// exit-code-3 outcome, not a failure.
	if err != nil && !errors.Is(err, errQuarantined) {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "chaos:") {
		t.Errorf("output missing the chaos report:\n%s", out.String())
	}
	if err := run(context.Background(), []string{"-dir", dir, "-chaos", "1.5"}, &out); err == nil {
		t.Error("out-of-range -chaos accepted")
	}
	if err := run(context.Background(), []string{"-dir", dir, "-chaos", "-0.1"}, &out); err == nil {
		t.Error("negative -chaos accepted")
	}
}

func TestExitCodeMapping(t *testing.T) {
	if got := exitCode(nil); got != 0 {
		t.Errorf("exitCode(nil) = %d, want 0", got)
	}
	if got := exitCode(errQuarantined); got != 3 {
		t.Errorf("exitCode(errQuarantined) = %d, want 3", got)
	}
	if got := exitCode(fmt.Errorf("run: %w", errQuarantined)); got != 3 {
		t.Errorf("exitCode(wrapped errQuarantined) = %d, want 3", got)
	}
	if got := exitCode(errors.New("boom")); got != 1 {
		t.Errorf("exitCode(fatal) = %d, want 1", got)
	}
}

// TestRunQuarantinedExitCode drives the chaos rate high enough that records
// are quarantined: the run must complete (not fail), report the losses, and
// return the sentinel main maps to exit code 3.
func TestRunQuarantinedExitCode(t *testing.T) {
	dir := makeWorkDir(t, 13)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-dir", dir, "-variant", "full", "-periods", "8",
		"-chaos", "0.8", "-chaos-seed", "5", "-retries", "2",
	}, &out)
	if !errors.Is(err, errQuarantined) {
		t.Fatalf("err = %v, want errQuarantined:\n%s", err, out.String())
	}
	if exitCode(err) != 3 {
		t.Errorf("exit code = %d, want 3", exitCode(err))
	}
	if !strings.Contains(out.String(), "records quarantined") {
		t.Errorf("output missing the quarantine report:\n%s", out.String())
	}
}

// TestRunResumeFlow drives -resume end to end through the CLI: a journaled
// run whose finish record is erased (the state a kill -9 after the last
// node leaves) resumes with every dataflow node skipped.
func TestRunResumeFlow(t *testing.T) {
	dir := makeWorkDir(t, 14)
	var out bytes.Buffer
	if err := run(context.Background(), []string{
		"-dir", dir, "-variant", "pipelined", "-periods", "8",
	}, &out); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, pipeline.RunJournalDir, "journal")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatalf("journaled run left no journal: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	trimmed := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if err := os.WriteFile(jpath, []byte(trimmed), 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := run(context.Background(), []string{
		"-dir", dir, "-variant", "pipelined", "-periods", "8", "-resume",
	}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "resumed: 20 journaled nodes skipped") {
		t.Errorf("output missing the resume summary:\n%s", out.String())
	}
}

// TestRunCacheFsck seeds a persistent cache, plants an orphan blob, and
// asserts -cache-fsck reports and removes it — and that a second scrub of
// the repaired cache comes back clean.
func TestRunCacheFsck(t *testing.T) {
	dir := makeWorkDir(t, 15)
	var out bytes.Buffer
	if err := run(context.Background(), []string{
		"-dir", dir, "-variant", "pipelined", "-periods", "8", "-cache", "disk",
	}, &out); err != nil {
		t.Fatal(err)
	}
	orphan := []byte("orphaned blob bytes")
	sum := sha256.Sum256(orphan)
	blobPath := filepath.Join(dir, pipeline.CacheDirName, "blobs", hex.EncodeToString(sum[:]))
	if err := os.WriteFile(blobPath, orphan, 0o644); err != nil {
		t.Fatal(err)
	}

	scrub := func() map[string]any {
		t.Helper()
		out.Reset()
		if err := run(context.Background(), []string{"-dir", dir, "-cache-fsck"}, &out); err != nil {
			t.Fatalf("cache-fsck: %v\n%s", err, out.String())
		}
		var rep map[string]any
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("cache-fsck output is not JSON: %v\n%s", err, out.String())
		}
		return rep
	}

	rep := scrub()
	if rep["orphan_blobs"] != float64(1) || rep["clean"] != false {
		t.Errorf("first scrub = %v, want 1 orphan and clean=false", rep)
	}
	if _, err := os.Stat(blobPath); !os.IsNotExist(err) {
		t.Errorf("orphan blob survived the scrub (err=%v)", err)
	}
	if rep := scrub(); rep["clean"] != true {
		t.Errorf("second scrub = %v, want clean=true", rep)
	}

	if err := run(context.Background(), []string{"-batch", dir, "-cache-fsck"}, &out); err == nil {
		t.Error("-cache-fsck with -batch accepted")
	}
}

func TestRunBatchChaosReport(t *testing.T) {
	d1, d2 := makeWorkDir(t, 11), makeWorkDir(t, 12)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-batch", d1 + "," + d2, "-periods", "8", "-chaos", "0.05", "-chaos-seed", "4",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "report: events 2 (ok 2, failed 0)") {
		t.Errorf("output missing the batch report:\n%s", out.String())
	}
}

func TestRunFleetMode(t *testing.T) {
	d1 := makeWorkDir(t, 7)
	d2 := makeWorkDir(t, 8)
	var out bytes.Buffer
	err := run(context.Background(), []string{"-batch", d1 + "," + d2, "-fleet", "-fleet-policy", "latency", "-periods", "8"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fleet: 2 events", "policy latency", "queued"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	for _, d := range []string{d1, d2} {
		inv, err := pipeline.Inventory(d)
		if err != nil {
			t.Fatal(err)
		}
		if inv.V2 != 6 {
			t.Errorf("dir %s inventory %+v, want 6 V2 products", d, inv)
		}
	}
}

func TestRunFleetFlagValidation(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, []string{"-dir", "x", "-fleet"}, &out); err == nil {
		t.Error("-fleet without -batch accepted")
	}
	if err := run(ctx, []string{"-batch", "a,b", "-fleet", "-fleet-policy", "bogus"}, &out); err == nil {
		t.Error("bogus -fleet-policy accepted")
	}
}
