package pipeline

import (
	"bufio"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"accelproc/internal/dsp"
	"accelproc/internal/obs"
	"accelproc/internal/response"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
	"accelproc/internal/storage"
	"accelproc/internal/synth"
)

// testEvent generates a small deterministic event: 3 stations, 1200 samples
// each, fast enough for every variant to run in a few hundred ms.
func testEvent(t *testing.T) seismic.Event {
	t.Helper()
	ev, err := synth.Event(synth.EventSpec{
		Name: "test", Files: 3, TotalPoints: 3600, Magnitude: 5.0, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// testOptions keeps the stage IX workload small (fast method, short grid).
func testOptions() Options {
	return Options{
		Response: response.Config{
			Method:  response.NigamJennings,
			Periods: response.LogPeriods(0.05, 5, 16),
		},
	}
}

// runVariant prepares a fresh work dir and runs one variant on the event.
func runVariant(t *testing.T, ev seismic.Event, v Variant, opts Options) (string, Result) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), v.String())
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), dir, v, opts)
	if err != nil {
		t.Fatalf("%v: %v", v, err)
	}
	return dir, res
}

// productHashes maps every product file (excluding inputs, the flags file,
// and the simulated executable) to its content hash.
func productHashes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		if e.IsDir() {
			if e.Name() == CacheDirName || e.Name() == RunJournalDir {
				continue // cache / run-journal state, not a product
			}
			t.Errorf("leftover scratch directory %s", e.Name())
			continue
		}
		name := e.Name()
		if name == "_filter.exe" || name == smformat.FlagsFile {
			continue
		}
		if strings.HasSuffix(name, ".v1") {
			first, err := firstLine(storage.Disk(), filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if first == "STRONG-MOTION UNCORRECTED RECORD V1" {
				continue // input
			}
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = fmt.Sprintf("%x", sha256.Sum256(data))
	}
	return out
}

func TestAllVariantsProduceCompleteInventory(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	for _, v := range Variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			dir, res := runVariant(t, ev, v, opts)
			if len(res.Stations) != 3 {
				t.Fatalf("stations = %v", res.Stations)
			}
			inv, err := Inventory(dir)
			if err != nil {
				t.Fatal(err)
			}
			n := len(ev.Records)
			want := OutputInventory{
				V1Inputs:     n,
				V1Components: 3 * n,
				V2:           3 * n,
				Fourier:      3 * n,
				Response:     3 * n,
				GEM:          18 * n,
				Plots:        3 * n,
				Metadata:     9,
			}
			if inv != want {
				t.Errorf("inventory = %+v, want %+v", inv, want)
			}
			if res.Timings.Total <= 0 {
				t.Error("total time not recorded")
			}
			if res.Timings.Stage[StageIX] <= 0 {
				t.Error("stage IX time not recorded")
			}
		})
	}
}

// The paper's central correctness claim: the optimization and both
// parallelizations preserve the final output exactly.
func TestVariantsProduceIdenticalOutputs(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	dirRef, _ := runVariant(t, ev, SeqOriginal, opts)
	ref := productHashes(t, dirRef)
	if len(ref) == 0 {
		t.Fatal("no products found")
	}
	for _, v := range []Variant{SeqOptimized, PartialParallel, FullParallel} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			dir, _ := runVariant(t, ev, v, opts)
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
					t.Errorf("product %s differs from sequential-original", name)
				}
			}
		})
	}
}

func TestRunIsDeterministic(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	dirA, _ := runVariant(t, ev, FullParallel, opts)
	dirB, _ := runVariant(t, ev, FullParallel, opts)
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

func TestSequentialOptimizedSkipsRedundantProcesses(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	_, resOrig := runVariant(t, ev, SeqOriginal, opts)
	_, resOpt := runVariant(t, ev, SeqOptimized, opts)
	for _, p := range []ProcessID{PPlotUncorrected, PSeparateComps2, PInitMetadata2} {
		if resOrig.Timings.Process[p] <= 0 {
			t.Errorf("original: redundant process #%d not executed", p)
		}
		if resOpt.Timings.Process[p] != 0 {
			t.Errorf("optimized: redundant process #%d executed", p)
		}
	}
}

func TestProcessTimesCoverAllStages(t *testing.T) {
	ev := testEvent(t)
	_, res := runVariant(t, ev, FullParallel, testOptions())
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

func TestStageOf(t *testing.T) {
	cases := map[ProcessID]StageID{
		PInitFlags:          StageI,
		PGatherInputs:       StageI,
		PInitFilterParams:   StageII,
		PInitResponseGraph:  StageII,
		PSeparateComponents: StageIII,
		PDefaultFilter:      StageIV,
		PFourier:            StageV,
		PPickCorners:        StageVI,
		PInitFlags2:         StageVII,
		PCorrectedFilter:    StageVIII,
		PResponseSpectrum:   StageIX,
		PGenerateGEM:        StageX,
		PPlotFourier:        StageXI,
		PPlotAccel:          StageXI,
		PPlotResponse:       StageXI,
		// The redundant processes appear in no stage.
		PPlotUncorrected: 0,
		PSeparateComps2:  0,
		PInitMetadata2:   0,
	}
	for p, want := range cases {
		if got := StageOf(p); got != want {
			t.Errorf("StageOf(%d) = %v, want %v", p, got, want)
		}
	}
}

func TestStageTableConsistency(t *testing.T) {
	// Every non-redundant process appears in exactly one stage.
	seen := map[ProcessID]int{}
	for _, st := range Stages {
		for _, p := range st.Processes {
			seen[p]++
		}
	}
	for _, info := range Processes {
		want := 1
		if info.Redundant {
			want = 0
		}
		// #0 and #11 share one implementation but are distinct processes.
		if got := seen[info.ID]; got != want {
			t.Errorf("process #%d appears in %d stages, want %d", info.ID, got, want)
		}
	}
	// The paper's counts: partial parallelizes 5 stages, full 10.
	partial, full := 0, 0
	for _, st := range Stages {
		if st.Partial != StratSequential {
			partial++
		}
		if st.Full != StratSequential {
			full++
		}
	}
	if partial != 5 {
		t.Errorf("partial parallel stages = %d, want 5", partial)
	}
	if full != 10 {
		t.Errorf("full parallel stages = %d, want 10", full)
	}
}

func TestVariantString(t *testing.T) {
	names := map[Variant]string{
		SeqOriginal:     "sequential-original",
		SeqOptimized:    "sequential-optimized",
		PartialParallel: "partially-parallelized",
		FullParallel:    "fully-parallelized",
	}
	for v, want := range names {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(v), got, want)
		}
	}
	if !strings.Contains(Variant(9).String(), "9") {
		t.Error("unknown variant string")
	}
	if StageID(99).String() != "Stage(99)" {
		t.Error("unknown stage string")
	}
	if StageIX.String() != "IX" {
		t.Errorf("StageIX = %q", StageIX.String())
	}
}

func TestRunFailsOnEmptyDirectory(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), dir, SeqOriginal, testOptions()); err == nil {
		t.Error("empty directory accepted")
	}
}

func TestRunFailsOnMissingDirectory(t *testing.T) {
	if _, err := Run(context.Background(), filepath.Join(t.TempDir(), "nope"), SeqOriginal, testOptions()); err == nil {
		t.Error("missing directory accepted")
	}
}

func TestRunFailsOnFileAsDirectory(t *testing.T) {
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), f, SeqOriginal, testOptions()); err == nil {
		t.Error("regular file accepted as work dir")
	}
}

func TestCorruptInputQuarantined(t *testing.T) {
	ev := testEvent(t)
	for _, v := range Variants {
		dir := filepath.Join(t.TempDir(), v.String())
		if err := PrepareWorkDir(dir, ev); err != nil {
			t.Fatal(err)
		}
		// Truncate one input mid-payload: the header survives (so the file
		// is gathered) but decoding must fail — and the decode node must
		// quarantine the record instead of failing the run.
		name := filepath.Join(dir, smformat.V1FileName(ev.Records[0].Station))
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), dir, v, testOptions())
		if err != nil {
			t.Fatalf("%v: run failed instead of degrading: %v", v, err)
		}
		if len(res.Quarantined) != 1 {
			t.Fatalf("%v: %d records quarantined, want 1", v, len(res.Quarantined))
		}
		q := res.Quarantined[0]
		if q.Station != ev.Records[0].Station {
			t.Errorf("%v: quarantined %s, want %s", v, q.Station, ev.Records[0].Station)
		}
		if q.Process != PSeparateComponents {
			t.Errorf("%v: quarantined at process #%d, want #%d", v, q.Process, PSeparateComponents)
		}
		if !errors.Is(q.Err, smformat.ErrFormat) {
			t.Errorf("%v: quarantine reason %v does not wrap smformat.ErrFormat", v, q.Err)
		}
		// The survivors must have completed normally.
		if want := len(ev.Records) - 1; len(res.Stations) != want {
			t.Errorf("%v: %d stations processed, want %d", v, len(res.Stations), want)
		}
	}
}

func TestRunUnknownVariant(t *testing.T) {
	dir := t.TempDir()
	if err := PrepareWorkDir(dir, testEvent(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), dir, Variant(42), testOptions()); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestCleanOutputsRestoresPristineState(t *testing.T) {
	ev := testEvent(t)
	dir, _ := runVariant(t, ev, FullParallel, testOptions())
	if err := CleanOutputs(dir); err != nil {
		t.Fatal(err)
	}
	inv, err := Inventory(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := OutputInventory{V1Inputs: len(ev.Records)}
	if inv != want {
		t.Errorf("after clean: %+v, want %+v", inv, want)
	}
	// A rerun on the cleaned directory must succeed.
	if _, err := Run(context.Background(), dir, SeqOptimized, testOptions()); err != nil {
		t.Fatalf("rerun after clean: %v", err)
	}
}

func TestRerunInUsedDirectoryIsStable(t *testing.T) {
	// Running a second variant in the same (uncleaned) directory must not
	// mis-gather the per-component .v1 products as inputs.
	ev := testEvent(t)
	dir, _ := runVariant(t, ev, SeqOptimized, testOptions())
	res, err := Run(context.Background(), dir, FullParallel, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stations) != len(ev.Records) {
		t.Errorf("stations after rerun = %v", res.Stations)
	}
}

// vanishingWS deletes one file right after every listing, as a concurrent
// stage-I task does when it renames its temp file into place between
// process #1's listing and its sniff of the listed names.
type vanishingWS struct {
	storage.Workspace
	victim string
}

func (w vanishingWS) List(dir string) ([]fs.DirEntry, error) {
	entries, err := w.Workspace.List(dir)
	os.Remove(w.victim) // checked by the test
	return entries, err
}

func TestGatherInputsSkipsVanishedEntries(t *testing.T) {
	ev := testEvent(t)
	dir := filepath.Join(t.TempDir(), "work")
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, smformat.FlagsFile+".tmp")
	if err := os.WriteFile(victim, []byte("flag00=0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := newState(context.Background(), dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.fail(nil)
	s.ws = vanishingWS{s.ws, victim}
	if err := s.procGatherInputs(); err != nil {
		t.Fatalf("gather failed on an entry that vanished after the listing: %v", err)
	}
	if _, err := os.Stat(victim); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the listed temp file did not vanish: %v", err)
	}
	stations, err := s.stations()
	if err != nil {
		t.Fatal(err)
	}
	if len(stations) != len(ev.Records) {
		t.Errorf("gathered stations %v, want %d", stations, len(ev.Records))
	}
}

func TestPrepareWorkDirRejectsInvalidEvent(t *testing.T) {
	if err := PrepareWorkDir(t.TempDir(), seismic.Event{Name: "x", Records: []seismic.Record{{}}}); err == nil {
		t.Error("invalid event accepted")
	}
}

func TestKeepTempDirs(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	opts.KeepTempDirs = true
	dir := filepath.Join(t.TempDir(), "keep")
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), dir, FullParallel, opts); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var scratch []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "tmp_") {
			scratch = append(scratch, e.Name())
		}
	}
	// Stages IV, V, and VIII each keep one folder per station.
	n := len(ev.Records)
	if len(scratch) != 3*n {
		t.Errorf("kept %d scratch dirs, want %d", len(scratch), 3*n)
	}
	sort.Strings(scratch)
	if !strings.HasPrefix(scratch[0], "tmp_cor") {
		t.Errorf("unexpected scratch dir %q", scratch[0])
	}
	// CleanOutputs removes them.
	if err := CleanOutputs(dir); err != nil {
		t.Fatal(err)
	}
	inv, err := Inventory(dir)
	if err != nil {
		t.Fatal(err)
	}
	if inv.V1Inputs != n || inv.V2 != 0 {
		t.Errorf("clean after keep: %+v", inv)
	}
}

func TestProcessTableMatchesPaper(t *testing.T) {
	if len(Processes) != 20 {
		t.Fatalf("process count = %d", len(Processes))
	}
	redundant := []ProcessID{PPlotUncorrected, PSeparateComps2, PInitMetadata2}
	for _, info := range Processes {
		if ProcessID(0) > info.ID || info.ID >= NumProcesses {
			t.Errorf("process %q has bad ID %d", info.Name, info.ID)
		}
		wantRedundant := false
		for _, r := range redundant {
			if info.ID == r {
				wantRedundant = true
			}
		}
		if info.Redundant != wantRedundant {
			t.Errorf("process #%d redundancy = %v, want %v", info.ID, info.Redundant, wantRedundant)
		}
	}
	// Figure 5's ID order must match the table index.
	for i, info := range Processes {
		if int(info.ID) != i {
			t.Errorf("Processes[%d].ID = %d", i, info.ID)
		}
	}
}

func TestNoTempFoldersAblationProducesIdenticalOutputs(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	dirRef, _ := runVariant(t, ev, FullParallel, opts)
	ref := productHashes(t, dirRef)

	opts.NoTempFolders = true
	dir, res := runVariant(t, ev, FullParallel, opts)
	got := productHashes(t, dir)
	if len(got) != len(ref) {
		t.Errorf("product count %d, want %d", len(got), len(ref))
	}
	for name, h := range ref {
		if got[name] != h {
			t.Errorf("product %s differs under the no-temp-folder ablation", name)
		}
	}
	if res.Timings.Stage[StageIV] <= 0 {
		t.Error("stage IV not timed under ablation")
	}
}

func TestSimulatedPlatformPreservesOutputsAndShrinksParallelTime(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	dirRef, _ := runVariant(t, ev, FullParallel, opts)
	ref := productHashes(t, dirRef)

	sim := opts
	sim.SimProcessors = 8
	dir, _ := runVariant(t, ev, FullParallel, sim)
	got := productHashes(t, dir)
	for name, h := range ref {
		if got[name] != h {
			t.Errorf("product %s differs on the simulated platform", name)
		}
	}
	// On the simulated 8-processor machine the parallel variant must be
	// charged less total time than the sequential one.
	par, seq := bestSimulatedTotals(t, ev, sim, FullParallel, SeqOriginal)
	if par >= seq {
		t.Errorf("simulated FullParallel %v >= SeqOriginal %v", par, seq)
	}
}

// bestSimulatedTotals runs variants a and b five times each, alternating
// which goes first, and returns each one's smallest charged total.  Like
// Table I's best of five, it keeps host noise in the CPU-clock measurement
// of this tiny event from deciding a comparison between variants: one
// run's spread, and the host's slow phases, exceed the gap between them.
func bestSimulatedTotals(t *testing.T, ev seismic.Event, opts Options, a, b Variant) (time.Duration, time.Duration) {
	t.Helper()
	best := map[Variant]time.Duration{}
	for i := 0; i < 5; i++ {
		order := []Variant{a, b}
		if i%2 == 1 {
			order = []Variant{b, a}
		}
		for _, v := range order {
			_, res := runVariant(t, ev, v, opts)
			if d, ok := best[v]; !ok || res.Timings.Total < d {
				best[v] = res.Timings.Total
			}
		}
	}
	return best[a], best[b]
}

func TestOptionsWithDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MetaWorkers != 4 {
		t.Errorf("MetaWorkers = %d, want 4", o.MetaWorkers)
	}
	if o.TaperFraction != 0.05 {
		t.Errorf("TaperFraction = %g, want 0.05", o.TaperFraction)
	}
	if o.ContentionCPU <= 0 || o.ContentionIO <= o.ContentionCPU {
		t.Errorf("contention defaults = %g, %g", o.ContentionCPU, o.ContentionIO)
	}
	// Explicit values survive.
	o = Options{MetaWorkers: 2, TaperFraction: 0.1, ContentionCPU: 0.2, ContentionIO: 0.9}.withDefaults()
	if o.MetaWorkers != 2 || o.TaperFraction != 0.1 || o.ContentionCPU != 0.2 || o.ContentionIO != 0.9 {
		t.Errorf("explicit options overridden: %+v", o)
	}
}

func TestSimulatedParForSurfacesDecodeFailures(t *testing.T) {
	ev := testEvent(t)
	dir := filepath.Join(t.TempDir(), "w")
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.SimProcessors = 8
	res, err := Run(context.Background(), dir, FullParallel, opts)
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	_ = res
	// Truncate one input and rerun: the decode failure must surface through
	// the simulated parallel loop as a quarantine verdict, not be swallowed
	// by the scheduler.
	name := filepath.Join(dir, ev.Records[0].Station+".v1")
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = Run(context.Background(), dir, FullParallel, opts)
	if err != nil {
		t.Fatalf("simulated run failed instead of degrading: %v", err)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0].Station != ev.Records[0].Station {
		t.Errorf("simulated run quarantined %v, want exactly %s", res.Quarantined, ev.Records[0].Station)
	}
}

func TestCostAndKindTablesCoverEveryProcess(t *testing.T) {
	// Sanity: the paper's legend assigns every process a kind and a cost;
	// heavy processes must not be marked light.
	heavy := map[ProcessID]bool{
		PGatherInputs: true, PSeparateComponents: true, PDefaultFilter: true,
		PFourier: true, PCorrectedFilter: true, PResponseSpectrum: true,
		PGenerateGEM: true, PPlotUncorrected: true, PPlotFourier: true,
		PPlotAccel: true, PPlotResponse: true, PPickCorners: true,
		PSeparateComps2: true,
	}
	for _, info := range Processes {
		if heavy[info.ID] && info.Cost == CostLight {
			t.Errorf("process #%d (%s) marked light", info.ID, info.Name)
		}
		if !heavy[info.ID] && info.Cost != CostLight {
			t.Errorf("process #%d (%s) marked heavy", info.ID, info.Name)
		}
	}
}

func TestInstrumentCorrectionOption(t *testing.T) {
	ev := testEvent(t)
	plain := testOptions()
	withInstr := testOptions()
	withInstr.Instrument = &dsp.Instrument{F0: 25, Damping: 0.7}

	dirPlain, _ := runVariant(t, ev, SeqOptimized, plain)
	dirInstr, _ := runVariant(t, ev, SeqOptimized, withInstr)

	a := productHashes(t, dirPlain)
	b := productHashes(t, dirInstr)
	// The corrected products must differ (the deconvolution does real
	// work) while the inventory stays complete.
	sameV2 := 0
	for name, h := range a {
		if strings.HasSuffix(name, ".v2") && b[name] == h {
			sameV2++
		}
	}
	if sameV2 != 0 {
		t.Errorf("%d V2 products identical with and without instrument correction", sameV2)
	}
	// And the parallel variant agrees with the sequential one under the
	// same instrument option.
	dirPar, _ := runVariant(t, ev, FullParallel, withInstr)
	c := productHashes(t, dirPar)
	for name, h := range b {
		if c[name] != h {
			t.Errorf("product %s differs across variants with instrument correction", name)
		}
	}
}

func TestObserverEmitsProcessSpans(t *testing.T) {
	ev := testEvent(t)
	var recs []obs.SpanRecord
	runTraced := func(v Variant) map[ProcessID]int {
		col := &obs.Collector{}
		opts := testOptions()
		opts.Observer = obs.New(col)
		_, _ = runVariant(t, ev, v, opts)
		recs = col.Records()
		got := map[ProcessID]int{}
		for _, rec := range recs {
			if rec.Kind != obs.KindProcess {
				continue
			}
			id, ok := rec.IntAttr("process")
			if !ok {
				t.Fatalf("process span %q has no process attr", rec.Name)
			}
			if rec.Duration < 0 {
				t.Errorf("process #%d span has negative duration %v", id, rec.Duration)
			}
			got[ProcessID(id)]++
		}
		return got
	}

	// Every one of the 20 processes emits exactly one span under the
	// original sequence; the optimized schedules drop the redundant three.
	got := runTraced(SeqOriginal)
	for id := ProcessID(0); id < NumProcesses; id++ {
		if got[id] != 1 {
			t.Errorf("process #%d emitted %d spans, want 1", id, got[id])
		}
	}

	got = runTraced(FullParallel)
	for id := ProcessID(0); id < NumProcesses; id++ {
		want := 1
		if Processes[id].Redundant {
			want = 0
		}
		if got[id] != want {
			t.Errorf("full-parallel: process #%d emitted %d spans, want %d", id, got[id], want)
		}
	}

	// Full-parallel runs exactly one span per stage, and each temp-folder
	// process reports the protocol's four steps as task spans under it.
	stages := 0
	procOf := map[int64]ProcessID{}
	for _, rec := range recs {
		switch rec.Kind {
		case obs.KindStage:
			stages++
		case obs.KindProcess:
			id, _ := rec.IntAttr("process")
			procOf[rec.ID] = ProcessID(id)
		}
	}
	if stages != NumStages {
		t.Errorf("full-parallel: %d stage spans, want %d", stages, NumStages)
	}
	steps := map[ProcessID][]string{}
	for _, rec := range recs {
		if id, ok := procOf[rec.Parent]; ok && rec.Kind == obs.KindTask {
			steps[id] = append(steps[id], rec.Name)
		}
	}
	for _, id := range []ProcessID{PDefaultFilter, PFourier, PCorrectedFilter} {
		if got, want := strings.Join(steps[id], ","), "stage-in,install-exe,execute,cleanup"; got != want {
			t.Errorf("full-parallel: process #%d task spans %q, want %q", id, got, want)
		}
	}
}

// firstLine returns the first line of a file (without the newline), or ""
// for an empty file, streaming through the workspace.
func firstLine(ws storage.Workspace, path string) (string, error) {
	f, err := ws.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 4096), 1024*1024)
	if !sc.Scan() {
		return "", sc.Err()
	}
	return sc.Text(), nil
}
