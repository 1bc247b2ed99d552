package pipeline

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"accelproc/internal/obs"
	"accelproc/internal/storage"
)

// poolRoot is the storage workspace's temp pool inside a work directory.
func poolRoot(dir string) string { return filepath.Join(dir, RunJournalDir, "tmp") }

// assertNoTempPool fails if a run left its temp pool behind, or, when the
// journal was off, any run-lifecycle folder at all.
func assertNoTempPool(t *testing.T, dir string, journal bool, when string) {
	t.Helper()
	if _, err := os.Stat(poolRoot(dir)); !os.IsNotExist(err) {
		t.Errorf("%s: temp pool %s survived the run (err=%v)", when, poolRoot(dir), err)
	}
	if journal {
		return
	}
	if _, err := os.Stat(filepath.Join(dir, RunJournalDir)); !os.IsNotExist(err) {
		t.Errorf("%s: unjournaled run left %s (err=%v)", when, RunJournalDir, err)
	}
}

// wantInodesCreated pins storage_inodes_created_total for one run of each
// variant on the 3-station test event: every product file, every staged
// copy, flags file and scratch folder, and with the journal on its one
// journal file.  A change that adds or drops a file or folder the run
// creates shows here.
var wantInodesCreated = map[Variant]float64{
	SeqOriginal:     135,
	SeqOptimized:    120,
	PartialParallel: 120,
	FullParallel:    130,
	Pipelined:       130,
}

// TestRunsLeaveNoTempPool runs every variant, journal on and off: the run
// removes its temp pool (and, unjournaled, leaves no run-lifecycle folder),
// and the storage_inodes_created_total counter reads its pinned value.
func TestRunsLeaveNoTempPool(t *testing.T) {
	ev := testEvent(t)
	for _, v := range []Variant{SeqOriginal, SeqOptimized, PartialParallel, FullParallel, Pipelined} {
		for _, journal := range []bool{false, true} {
			opts := testOptions()
			opts.Journal = journal
			opts.Observer = obs.New()
			dir, _ := runVariant(t, ev, v, opts)
			when := v.String()
			if journal {
				when += "/journal"
			}
			assertNoTempPool(t, dir, journal, when)
			want := wantInodesCreated[v]
			if journal {
				want++ // the journal file
			}
			if got := opts.Observer.Counter("storage_inodes_created_total").Value(); got != want {
				t.Errorf("%s: storage_inodes_created_total = %v, want %v", when, got, want)
			}
		}
	}
}

// cancelOnFirstTask cancels the run context when the first task span ends,
// so the cancellation lands with writes and scratch folders in flight.
type cancelOnFirstTask struct{ cancel context.CancelFunc }

func (c cancelOnFirstTask) Record(rec obs.SpanRecord) {
	if rec.Kind == obs.KindTask {
		c.cancel()
	}
}

// TestCancelledRunLeavesNoTempPool cancels runs mid-protocol, journal on
// and off: the pool goes with the run like its scratch folders do.
func TestCancelledRunLeavesNoTempPool(t *testing.T) {
	ev := testEvent(t)
	for _, v := range []Variant{FullParallel, Pipelined} {
		for _, journal := range []bool{false, true} {
			dir := filepath.Join(t.TempDir(), "work")
			if err := PrepareWorkDir(dir, ev); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			opts := testOptions()
			opts.Journal = journal
			opts.Observer = obs.New(cancelOnFirstTask{cancel})
			_, err := Run(ctx, dir, v, opts)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v: err = %v, want context.Canceled", v, err)
			}
			assertNoTempPool(t, dir, journal, v.String()+" cancelled")
			assertNoScratchDirs(t, dir)
		}
	}
}

// TestPersistentCacheOnOtherFilesystem keeps the action cache on tmpfs
// (/dev/shm), another filesystem than the work directory's pool: every
// write into the cache takes the sibling-temp fallback, and a cold and a
// warm run stay byte-identical to an uncached run.  The mem backend only
// flushes the work directory, so its cache outside it never reaches disk
// and its warm run cannot hit; only its products are checked.
func TestPersistentCacheOnOtherFilesystem(t *testing.T) {
	ev := testEvent(t)
	refDir, _ := runVariant(t, ev, Pipelined, testOptions())
	ref := productHashes(t, refDir)
	for _, backend := range []storage.Backend{storage.BackendFS, storage.BackendMem} {
		t.Run(string(backend), func(t *testing.T) {
			cacheDir, err := os.MkdirTemp("/dev/shm", "accelproc-cache-")
			if err != nil {
				t.Skipf("no /dev/shm: %v", err)
			}
			t.Cleanup(func() { os.RemoveAll(cacheDir) })
			dir := filepath.Join(t.TempDir(), "work")
			if err := PrepareWorkDir(dir, ev); err != nil {
				t.Fatal(err)
			}
			for _, pass := range []string{"cold", "warm"} {
				opts := testOptions()
				opts.Storage = backend
				opts.Cache = CacheConfig{Mode: CachePersistent, Dir: cacheDir}
				res, err := Run(context.Background(), dir, Pipelined, opts)
				if err != nil {
					t.Fatalf("%s: %v", pass, err)
				}
				if want := int64(3 * perRecordNodes); backend == storage.BackendFS && pass == "warm" && res.Cache.ActionHits != want {
					t.Errorf("warm run: %d action-cache hits, want %d", res.Cache.ActionHits, want)
				}
				assertSameProducts(t, productHashes(t, dir), ref, pass)
				assertNoTmpFiles(t, dir)
				assertNoTmpFiles(t, cacheDir)
				assertNoTempPool(t, dir, false, pass)
			}
			blobs, err := os.ReadDir(filepath.Join(cacheDir, "blobs"))
			if backend == storage.BackendFS && (err != nil || len(blobs) == 0) {
				t.Errorf("cache on /dev/shm holds no blobs: %d, %v", len(blobs), err)
			}
		})
	}
}
