package pipeline

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"accelproc/internal/faults"
	"accelproc/internal/obs"
)

// The kill-9 crash matrix: for every instrumented crash point, re-exec this
// test binary with the point armed, let the child SIGKILL itself mid-event,
// resume the work directory in-process, and require byte-identical products
// with only the unfinished subgraphs re-executed.  This is the integration
// proof behind `smproc -resume` — no error path is exercised, the process
// just dies between two instructions, exactly like power loss.

// crashHelperEnv carries the work directory into the sacrificial child; it
// doubles as the gate that keeps TestCrashRunHelper inert in normal runs.
const crashHelperEnv = "ACCELPROC_CRASH_HELPER_DIR"

// crashOptions are the run options both the child and the resuming parent
// use — they must agree, or the journal's params digest will not match.
// Workers=1 serializes the dataflow so journal appends map 1:1 onto
// completed nodes and the matrix's exact skip counts are deterministic.
func crashOptions() Options {
	opts := testOptions()
	opts.Workers = 1
	opts.Journal = true
	opts.Cache = CacheConfig{Mode: CachePersistent}
	return opts
}

// TestCrashRunHelper is not a test of its own: it runs only when the crash
// matrix re-execs the binary with the helper environment set, processes the
// handed-over work directory, and (normally) never returns — the armed
// crash point SIGKILLs the process mid-run.
func TestCrashRunHelper(t *testing.T) {
	dir := os.Getenv(crashHelperEnv)
	if dir == "" {
		t.Skip("helper: only meaningful as a crash-matrix subprocess")
	}
	if _, err := Run(context.Background(), dir, Pipelined, crashOptions()); err != nil {
		t.Fatalf("helper run: %v", err)
	}
}

// killedBySIGKILL reports whether the subprocess died to the injected kill
// (signal, or the 137 fallback exit the injector uses when the signal is
// unavailable).
func killedBySIGKILL(err error) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
		return ws.Signal() == syscall.SIGKILL
	}
	return ee.ExitCode() == 137
}

func TestCrashResumeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary once per crash point")
	}
	ctx := context.Background()
	ev := testEvent(t)
	const totalNodes = 3 * perRecordNodes

	// The uninterrupted reference: same options, no crash, no resume.
	refDir := filepath.Join(t.TempDir(), "ref")
	if err := PrepareWorkDir(refDir, ev); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, refDir, Pipelined, crashOptions()); err != nil {
		t.Fatal(err)
	}
	ref := productHashes(t, refDir)

	cases := []struct {
		arm string // CrashEnv value: <point>:<nth>
		// wantSkipped is the exact resume skip count where the serial append
		// order makes it deterministic; -1 where the crash lands mid-protocol
		// and output validation legitimately drops a data-dependent number of
		// journaled claims.
		wantSkipped int64
		wantScratch bool // crash leaves a live scratch dir the resume must sweep
	}{
		// Dying *before* a journal append loses that record: the journal
		// holds exactly nth-1 acknowledged nodes, all of which must skip.
		{arm: faults.CrashJournalAppend + ":1", wantSkipped: 0},
		{arm: faults.CrashJournalAppend + ":5", wantSkipped: 4},
		// Dying *after* the append proves the acknowledged record survived.
		{arm: faults.CrashJournalAppended + ":5", wantSkipped: 5},
		// Dying inside an action-cache Put leaves orphan blobs / a torn
		// manifest; the cache sweep and scrub own those, resume just works.
		{arm: faults.CrashManifestPut + ":3", wantSkipped: -1},
		{arm: faults.CrashManifestPutDone + ":3", wantSkipped: -1},
		// Dying at a stage-move boundary strands inputs inside a tmp_*
		// scratch dir; resume sweeps it and the validation cascade re-runs
		// the nodes whose outputs rode along.
		{arm: faults.CrashStageMove + ":4", wantSkipped: -1, wantScratch: true},
		{arm: faults.CrashStageMoved + ":4", wantSkipped: -1, wantScratch: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.arm, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "work")
			if err := PrepareWorkDir(dir, ev); err != nil {
				t.Fatal(err)
			}

			cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashRunHelper$", "-test.v")
			cmd.Env = append(os.Environ(),
				crashHelperEnv+"="+dir,
				faults.CrashEnv+"="+tc.arm,
			)
			out, err := cmd.CombinedOutput()
			if !killedBySIGKILL(err) {
				t.Fatalf("subprocess survived crash point %s (err=%v):\n%s", tc.arm, err, out)
			}
			assertTempDebrisOnlyInPool(t, dir, tc.arm)

			opts := crashOptions()
			opts.Resume = true
			opts.Observer = obs.New()
			res, err := Run(ctx, dir, Pipelined, opts)
			if err != nil {
				t.Fatalf("resume after %s: %v", tc.arm, err)
			}
			if !res.Resume.Resumed {
				t.Fatalf("resume did not adopt the journal: %+v", res.Resume)
			}
			if len(res.Quarantined) != 0 {
				t.Fatalf("resume quarantined %v, want none", res.Quarantined)
			}

			// Only unfinished subgraphs re-execute: every journaled node that
			// passed validation is skipped, and skipped + cache-restored +
			// executed covers the whole graph.
			if int64(res.Resume.NodesJournaled) != res.Resume.NodesSkipped {
				t.Errorf("journaled %d nodes but skipped %d",
					res.Resume.NodesJournaled, res.Resume.NodesSkipped)
			}
			if tc.wantSkipped >= 0 && res.Resume.NodesSkipped != tc.wantSkipped {
				t.Errorf("NodesSkipped = %d, want %d", res.Resume.NodesSkipped, tc.wantSkipped)
			}
			executed := recordNodesExecuted(opts)
			if got := executed + res.Resume.NodesSkipped + res.Cache.ActionHits; got != totalNodes {
				t.Errorf("executed %d + skipped %d + cache hits %d = %d, want %d",
					executed, res.Resume.NodesSkipped, res.Cache.ActionHits, got, totalNodes)
			}
			if res.Resume.NodesSkipped > 0 && executed == totalNodes {
				t.Error("resume skipped nodes yet everything re-executed")
			}
			if v := opts.Observer.Counter("journal_replays").Value(); v != 1 {
				t.Errorf("journal_replays = %v, want 1", v)
			}
			if v := int64(opts.Observer.Counter("nodes_skipped_resume").Value()); v != res.Resume.NodesSkipped {
				t.Errorf("nodes_skipped_resume = %d, Result says %d", v, res.Resume.NodesSkipped)
			}
			if tc.wantScratch && res.Resume.ScratchSwept == 0 {
				t.Errorf("crash at %s left no scratch to sweep, expected stranded tmp_* dir", tc.arm)
			}

			// The resume swept the killed run's pool and removed its own.
			assertNoTempPool(t, dir, true, tc.arm)

			// The bottom line: products byte-identical to the uninterrupted run.
			assertSameProducts(t, productHashes(t, dir), ref, tc.arm)
		})
	}
}

// assertTempDebrisOnlyInPool checks what a killed run leaves of its temps:
// its pool, holding at least one private directory, and no *.tmp file
// anywhere outside it.
func assertTempDebrisOnlyInPool(t *testing.T, dir, when string) {
	t.Helper()
	if entries, err := os.ReadDir(poolRoot(dir)); err != nil || len(entries) == 0 {
		t.Errorf("%s: killed run left no temp pool to sweep (%d entries, err=%v)", when, len(entries), err)
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path == poolRoot(dir) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			t.Errorf("%s: temp %s outside the pool", when, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
