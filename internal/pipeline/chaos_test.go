package pipeline

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"accelproc/internal/faults"
	"accelproc/internal/obs"
	"accelproc/internal/smformat"
	"accelproc/internal/storage"
	"accelproc/internal/synth"
)

// chaosOptions is testOptions with a fault injector at the given rate and a
// fresh observer, so metric assertions see only this run.
func chaosOptions(rate float64, seed int64) Options {
	opts := testOptions()
	opts.Chaos = &faults.Config{Seed: seed, Rate: rate}
	opts.Retry = RetryPolicy{JitterSeed: seed, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond}
	opts.Observer = obs.New()
	return opts
}

// chaosProductHashes is productHashes for possibly-degraded directories: the
// quarantine folder is allowed (and skipped), scratch folders still fail.
func chaosProductHashes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			if name == QuarantineDir {
				continue
			}
			t.Errorf("leftover scratch directory %s", name)
			continue
		}
		if name == "_filter.exe" || strings.HasSuffix(name, ".meta") {
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

// assertOnlyQuarantineDirs fails on any scratch dir leak: the only directory
// a degraded run may leave behind is quarantine/, holding folders only — the
// preserved tmp_* scratch folders and one product folder per quarantined
// station.
func assertOnlyQuarantineDirs(t *testing.T, dir string, res Result) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	condemned := map[string]bool{}
	for _, q := range res.Quarantined {
		condemned[q.Station] = true
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if e.Name() != QuarantineDir {
			t.Errorf("leaked directory %s outside %s/", e.Name(), QuarantineDir)
			continue
		}
		sub, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range sub {
			if !q.IsDir() || !(strings.HasPrefix(q.Name(), "tmp_") || condemned[q.Name()]) {
				t.Errorf("unexpected quarantine entry %s", q.Name())
			}
		}
	}
}

// assertQuarantinedProducts checks where a record condemned by the failed
// process left its products: none in the work directory besides its input
// V1, and under quarantine/<station>/ only products of processes the verdict
// could not have stopped — processes not downstream of the failed one in the
// artifact graph and, for the staged variants, in an earlier stage.  A node
// that ran for the record after its verdict fails the check, even though the
// end-of-run sweep moved its products out of the work directory.
func assertQuarantinedProducts(t *testing.T, dir string, v Variant, st string, failed ProcessID) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), st) && e.Name() != smformat.V1FileName(st) {
			t.Errorf("%v: product %s of quarantined %s left in the work directory", v, e.Name(), st)
		}
	}
	cut := map[ProcessID]bool{failed: true}
	for grew := true; grew; {
		grew = false
		for _, e := range DeriveArtifactEdges() {
			if cut[e.From] && !cut[e.To] {
				cut[e.To], grew = true, true
			}
		}
	}
	allowed := map[string]bool{}
	for _, p := range Processes {
		if p.Redundant || cut[p.ID] || (v != Pipelined && StageOf(p.ID) >= StageOf(failed)) {
			continue
		}
		for _, name := range nodeOutputNames(p.ID, st) {
			allowed[name] = true
		}
	}
	products, err := os.ReadDir(filepath.Join(dir, QuarantineDir, st))
	if err != nil {
		t.Errorf("%v: products of %s not moved under %s/: %v", v, st, QuarantineDir, err)
		return
	}
	for _, e := range products {
		if !allowed[e.Name()] {
			t.Errorf("%v: quarantined %s has product %s of a process its verdict should have stopped", v, st, e.Name())
		}
	}
}

// TestChaosSoak is the acceptance soak: sweep fault rates 0-20% with a fixed
// seed on both storage backends, assert the pipeline never deadlocks (test
// completion), never leaks scratch dirs outside quarantine/, reports
// retry/quarantine counts through the obs metrics, and produces
// byte-identical outputs to the fault-free run for every surviving record.
func TestChaosSoak(t *testing.T) {
	ev := testEvent(t)
	cleanDir, _ := runVariant(t, ev, FullParallel, testOptions())
	cleanHashes := productHashes(t, cleanDir)

	for _, backend := range []storage.Backend{storage.BackendFS, storage.BackendMem} {
		for _, rate := range []float64{0, 0.05, 0.20} {
			backend, rate := backend, rate
			t.Run(fmt.Sprintf("%s/rate=%v", backend, rate), func(t *testing.T) {
				opts := chaosOptions(rate, 1234)
				opts.Storage = backend
				dir := filepath.Join(t.TempDir(), "chaos")
				if err := PrepareWorkDir(dir, ev); err != nil {
					t.Fatal(err)
				}
				res, err := Run(context.Background(), dir, FullParallel, opts)
				if err != nil {
					t.Fatalf("chaos run at rate %v failed outright: %v", rate, err)
				}
				assertOnlyQuarantineDirs(t, dir, res)

				quarantined := make(map[string]bool)
				for _, q := range res.Quarantined {
					quarantined[q.Station] = true
					if q.Scratch != "" {
						if _, err := os.Stat(q.Scratch); err != nil {
							t.Errorf("quarantined scratch %s not preserved: %v", q.Scratch, err)
						}
					}
				}
				if len(res.Stations)+len(quarantined) != 3 {
					t.Errorf("stations %v + quarantined %v do not cover the event", res.Stations, res.Quarantined)
				}

				// Surviving records' products are byte-identical to the clean run.
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

				// Metrics agree with the result.
				o := opts.Observer
				if v := int64(o.Counter("faults_injected").Value()); v != res.FaultsInjected {
					t.Errorf("faults_injected metric %d != result %d", v, res.FaultsInjected)
				}
				if v := int64(o.Counter("retries").Value()); v != res.Retries {
					t.Errorf("retries metric %d != result %d", v, res.Retries)
				}
				if v := int(o.Counter("records_quarantined").Value()); v != len(res.Quarantined) {
					t.Errorf("records_quarantined metric %d != %d", v, len(res.Quarantined))
				}

				if rate == 0 {
					if res.FaultsInjected != 0 || res.Retries != 0 || len(res.Quarantined) != 0 {
						t.Errorf("rate 0 run reported chaos: %d faults, %d retries, %d quarantined",
							res.FaultsInjected, res.Retries, len(res.Quarantined))
					}
					// chaosProductHashes skips all metadata; compare like for like.
					cleanN := 0
					for name := range cleanHashes {
						if !strings.HasSuffix(name, ".meta") {
							cleanN++
						}
					}
					if len(got) != cleanN {
						t.Errorf("rate 0 produced %d products, clean run %d", len(got), cleanN)
					}
				}
			})
		}
	}
}

// TestChaosDeterministicBySeed asserts two runs with the same seed replay
// the same faults, retries, and quarantine set — on both storage backends,
// and identically across them (the injector's decisions are a pure function
// of the operation sites, which the backends share).
func TestChaosDeterministicBySeed(t *testing.T) {
	ev := testEvent(t)
	run := func(backend storage.Backend) Result {
		dir := filepath.Join(t.TempDir(), "chaos")
		if err := PrepareWorkDir(dir, ev); err != nil {
			t.Fatal(err)
		}
		opts := chaosOptions(0.10, 99)
		opts.Storage = backend
		res, err := Run(context.Background(), dir, FullParallel, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	check := func(label string, a, b Result) {
		t.Helper()
		if a.FaultsInjected != b.FaultsInjected || a.Retries != b.Retries {
			t.Errorf("%s diverged: faults %d vs %d, retries %d vs %d",
				label, a.FaultsInjected, b.FaultsInjected, a.Retries, b.Retries)
		}
		if fmt.Sprint(a.Stations) != fmt.Sprint(b.Stations) {
			t.Errorf("%s diverged in survivors: %v vs %v", label, a.Stations, b.Stations)
		}
		if len(a.Quarantined) != len(b.Quarantined) {
			t.Fatalf("%s diverged in quarantine: %v vs %v", label, a.Quarantined, b.Quarantined)
		}
		for i := range a.Quarantined {
			if a.Quarantined[i].Station != b.Quarantined[i].Station {
				t.Errorf("%s quarantine %d: %s vs %s", label, i, a.Quarantined[i].Station, b.Quarantined[i].Station)
			}
		}
	}
	a, b := run(storage.BackendFS), run(storage.BackendFS)
	check("same seed (fs)", a, b)
	m, n := run(storage.BackendMem), run(storage.BackendMem)
	check("same seed (mem)", m, n)
	check("fs vs mem", a, m)
}

// TestPartialBatchPoisonedRecord is the satellite scenario: N events, one
// poisoned record.  The other events complete untouched, the report names
// the quarantined record, and every clean record's products are
// byte-identical to a no-chaos batch.
func TestPartialBatchPoisonedRecord(t *testing.T) {
	mkDirs := func(t *testing.T) []string {
		root := t.TempDir()
		dirs := make([]string, 3)
		for i := range dirs {
			files := 2
			if i == 1 {
				files = 3 // station SS03 exists only in the poisoned event
			}
			ev, err := synth.Event(synth.EventSpec{
				Name: "batch", Files: files, TotalPoints: 1600, Magnitude: 4.8, Seed: int64(100 + i),
			})
			if err != nil {
				t.Fatal(err)
			}
			dirs[i] = filepath.Join(root, fmt.Sprintf("ev%d", i))
			if err := PrepareWorkDir(dirs[i], ev); err != nil {
				t.Fatal(err)
			}
		}
		return dirs
	}

	ref := mkDirs(t)
	refOpts := batchOptions(2)
	if _, err := RunBatch(context.Background(), ref, FullParallel, refOpts); err != nil {
		t.Fatal(err)
	}

	for _, backend := range []storage.Backend{storage.BackendFS, storage.BackendMem} {
		backend := backend
		t.Run(string(backend), func(t *testing.T) {
			dirs := mkDirs(t)
			opts := batchOptions(2)
			opts.Storage = backend
			opts.Observer = obs.New()
			opts.Retry = RetryPolicy{BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond}
			opts.Chaos = &faults.Config{Seed: 7, Rules: []faults.Rule{
				{Record: "SS03", Stage: "cor", Op: "exec", Kind: faults.KindPermanent},
			}}
			results, err := RunBatch(context.Background(), dirs, FullParallel, opts)
			if err != nil {
				t.Fatalf("degraded batch failed outright: %v", err)
			}
			rep := BatchReport(results)
			if rep.Failed != 0 || rep.Succeeded != 3 {
				t.Fatalf("report events: %+v", rep)
			}
			if !rep.Degraded() {
				t.Error("report does not show degradation")
			}
			if len(rep.Quarantined) != 1 || rep.Quarantined[0].Station != "SS03" {
				t.Fatalf("quarantined = %+v, want exactly SS03", rep.Quarantined)
			}
			q := rep.Quarantined[0]
			if q.Dir != dirs[1] || q.Stage != StageVIII || q.Process != PCorrectedFilter {
				t.Errorf("outcome misattributed: %+v", q)
			}
			if rep.Err == nil {
				t.Fatal("report with quarantined record has nil Err")
			}
			if !errors.Is(rep.Err, &StageError{Record: "SS03"}) {
				t.Errorf("report Err does not match the poisoned record: %v", rep.Err)
			}

			// Clean events and the poisoned event's surviving records match the
			// no-chaos batch byte for byte.
			for i := range dirs {
				want := productHashes(t, ref[i])
				var got map[string]string
				if i == 1 {
					got = chaosProductHashes(t, dirs[i])
				} else {
					got = productHashes(t, dirs[i])
				}
				for name, h := range want {
					if strings.HasSuffix(name, ".meta") {
						continue
					}
					if i == 1 && strings.HasPrefix(name, "SS03") {
						continue // the quarantined record
					}
					if got[name] != h {
						t.Errorf("event %d product %s differs from no-chaos batch", i, name)
					}
				}
			}
			if v := int(opts.Observer.Counter("records_quarantined").Value()); v != 1 {
				t.Errorf("records_quarantined = %d, want 1", v)
			}
		})
	}
}

// TestScratchCleanupErrorsCounter forces every scratch removal to fail and
// asserts the failures are counted — and still not leaked, because the
// cleanup path falls back to the plain filesystem.
func TestScratchCleanupErrorsCounter(t *testing.T) {
	ev := testEvent(t)
	opts := chaosOptions(0, 5)
	opts.Chaos.Rules = []faults.Rule{{Op: "remove", Kind: faults.KindTransient}}
	dir := filepath.Join(t.TempDir(), "work")
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), dir, FullParallel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("cleanup faults quarantined records: %+v", res.Quarantined)
	}
	// Three temp-folder stages times three stations: nine failed removals.
	if v := int(opts.Observer.Counter("scratch_cleanup_errors").Value()); v != 9 {
		t.Errorf("scratch_cleanup_errors = %d, want 9", v)
	}
	assertNoScratchDirs(t, dir)
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("cleanup faults created a quarantine dir: %v", err)
	}
	// The run's products are untouched by cleanup chaos.
	got := productHashes(t, dir)
	cleanDir, _ := runVariant(t, ev, FullParallel, testOptions())
	want := productHashes(t, cleanDir)
	for name, h := range want {
		if got[name] != h {
			t.Errorf("product %s differs under cleanup chaos", name)
		}
	}
}

// exdevFS fails every rename with EXDEV, as if scratch dirs lived on a
// different filesystem than the work directory.
type exdevFS struct{ faults.FS }

func (f exdevFS) Rename(oldpath, newpath string) error {
	return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.EXDEV}
}

func TestStageMoveFallsBackOnEXDEV(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.v2")
	dst := filepath.Join(dir, "dst.v2")
	payload := []byte("cross-device payload")
	if err := os.WriteFile(src, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	c := o.Counter("bytes")
	if err := stageMove(exdevFS{faults.OS{}}, dst, src, c); err != nil {
		t.Fatalf("stageMove did not fall back on EXDEV: %v", err)
	}
	got, err := os.ReadFile(dst)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("destination after fallback: %q, %v", got, err)
	}
	if _, err := os.Stat(src); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("source survived the move: %v", err)
	}
	if v := c.Value(); v != float64(len(payload)) {
		t.Errorf("staging counter charged %v bytes, want %d", v, len(payload))
	}
}

// TestStageMovePropagatesRealRenameErrors ensures the EXDEV fallback does
// not swallow other rename failures.
func TestStageMovePropagatesRealRenameErrors(t *testing.T) {
	dir := t.TempDir()
	err := stageMove(faults.OS{}, filepath.Join(dir, "dst"), filepath.Join(dir, "missing"), nil)
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stageMove on missing source = %v, want not-exist", err)
	}
}

// TestRetryOpRecoversFromTransients exercises the policy engine directly:
// two transient failures, then success, with the retries counted.
func TestRetryOpRecoversFromTransients(t *testing.T) {
	opts := testOptions()
	opts.Retry = RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Microsecond, MaxDelay: 100 * time.Microsecond}
	opts.Observer = obs.New()
	s, err := newState(context.Background(), t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.fail(nil)
	rc := recordSite{stage: StageIV, proc: PDefaultFilter, tag: "def", station: "SS01"}
	calls := 0
	err = s.retryOp(rc, "move", func() error {
		calls++
		if calls < 3 {
			return faults.ErrTransient
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("retryOp: err=%v calls=%d", err, calls)
	}
	if s.nRetries.Load() != 2 {
		t.Errorf("retries = %d, want 2", s.nRetries.Load())
	}
}

// TestRetryOpGivesUp covers the two terminal paths: permanent errors fail
// immediately, transient ones only after MaxAttempts.
func TestRetryOpGivesUp(t *testing.T) {
	opts := testOptions()
	opts.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Microsecond}
	s, err := newState(context.Background(), t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.fail(nil)
	rc := recordSite{stage: StageV, proc: PFourier, tag: "fou", station: "SS02"}

	calls := 0
	err = s.retryOp(rc, "write", func() error { calls++; return faults.ErrPermanent })
	var serr *StageError
	if !errors.As(err, &serr) || serr.Kind != ErrKindPermanent || calls != 1 {
		t.Errorf("permanent: err=%v calls=%d", err, calls)
	}

	calls = 0
	err = s.retryOp(rc, "write", func() error { calls++; return faults.ErrTransient })
	if !errors.As(err, &serr) || serr.Kind != ErrKindTransient || serr.Attempts != 3 || calls != 3 {
		t.Errorf("exhaustion: err=%v calls=%d", err, calls)
	}
}

// TestRetryOpHonorsOpTimeout asserts a stuck operation classifies as a
// timeout and is retried until exhaustion.
func TestRetryOpHonorsOpTimeout(t *testing.T) {
	opts := testOptions()
	opts.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Microsecond, OpTimeout: 2 * time.Millisecond}
	s, err := newState(context.Background(), t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.fail(nil)
	release := make(chan struct{})
	defer close(release)
	rc := recordSite{stage: StageIV, proc: PDefaultFilter, tag: "def", station: "SS01"}
	err = s.retryOp(rc, "exec", func() error { <-release; return nil })
	var serr *StageError
	if !errors.As(err, &serr) || serr.Kind != ErrKindTimeout || serr.Attempts != 2 {
		t.Errorf("timeout: %v", err)
	}
}

// TestQuarantinePreservesScratchAndFiltersStations drives quarantine
// directly and checks its three effects: scratch preserved, station
// filtered, outcome recorded.
func TestQuarantinePreservesScratchAndFiltersStations(t *testing.T) {
	ev := testEvent(t)
	dir := filepath.Join(t.TempDir(), "work")
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}
	s, err := newState(context.Background(), dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.fail(nil)
	if err := s.procGatherInputs(); err != nil {
		t.Fatal(err)
	}
	scratch := s.path("tmp_def_00_SS01")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	serr := &StageError{Stage: StageIV, Process: PDefaultFilter, Record: "SS01", Op: "move",
		Kind: ErrKindPermanent, Attempts: 1, Err: faults.ErrPermanent}
	rc := recordSite{stage: StageIV, proc: PDefaultFilter, tag: "def", station: "SS01", scratch: scratch}
	if err := s.degraded(rc, serr); err != nil {
		t.Fatalf("degraded propagated a record failure: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, "tmp_def_00_SS01")); err != nil {
		t.Errorf("scratch not preserved in quarantine: %v", err)
	}
	if _, err := os.Stat(scratch); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("scratch still in work dir: %v", err)
	}
	stations, err := s.stations()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stations {
		if st == "SS01" {
			t.Error("quarantined station still listed")
		}
	}
	outs := s.quarantinedOutcomes()
	if len(outs) != 1 || outs[0].Station != "SS01" || outs[0].Scratch == "" {
		t.Errorf("outcomes = %+v", outs)
	}
	// Cancellation is never degraded.
	if err := s.degraded(rc, context.Canceled); !errors.Is(err, context.Canceled) {
		t.Errorf("degraded swallowed cancellation: %v", err)
	}
}

// TestCleanOutputsRemovesQuarantine verifies a degraded directory can be
// reset to pristine state.
func TestCleanOutputsRemovesQuarantine(t *testing.T) {
	ev := testEvent(t)
	dir := filepath.Join(t.TempDir(), "work")
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}
	q := filepath.Join(dir, QuarantineDir, "tmp_def_00_SS01")
	if err := os.MkdirAll(q, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := CleanOutputs(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("quarantine dir survived CleanOutputs: %v", err)
	}
}

// TestChaosBackoffIsDeterministic pins the jitter schedule to the seed.
func TestChaosBackoffIsDeterministic(t *testing.T) {
	p := RetryPolicy{JitterSeed: 11}.withDefaults()
	q := RetryPolicy{JitterSeed: 11}.withDefaults()
	for attempt := 1; attempt <= 5; attempt++ {
		a, b := p.Backoff(attempt, "SS01/move"), q.Backoff(attempt, "SS01/move")
		if a != b {
			t.Errorf("attempt %d: %v vs %v", attempt, a, b)
		}
		if a <= 0 || a > p.MaxDelay {
			t.Errorf("attempt %d backoff %v outside (0, %v]", attempt, a, p.MaxDelay)
		}
	}
	if p.Backoff(1, "SS01/move") == p.Backoff(1, "SS02/move") {
		t.Error("jitter does not decorrelate keys")
	}
}
