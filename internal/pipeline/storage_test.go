package pipeline

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"accelproc/internal/faults"
	"accelproc/internal/obs"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
	"accelproc/internal/storage"
)

// TestStorageBackendsProduceIdenticalOutputs is the tentpole invariant of
// the storage plane: every variant writes byte-identical final products on
// the fs and mem backends, and the mem backend leaves no in-memory state
// behind — after the run the work directory alone holds the full event.
func TestStorageBackendsProduceIdenticalOutputs(t *testing.T) {
	ev := testEvent(t)
	for _, v := range Variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			opts := testOptions()
			opts.Storage = storage.BackendFS
			dirRef, resFS := runVariant(t, ev, v, opts)
			ref := productHashes(t, dirRef)

			opts.Storage = storage.BackendMem
			dir, resMem := runVariant(t, ev, v, opts)
			got := productHashes(t, dir)
			if len(got) != len(ref) {
				t.Errorf("product count %d on mem, want %d", len(got), len(ref))
			}
			for name, h := range ref {
				if got[name] != h {
					t.Errorf("product %s differs between fs and mem backends", name)
				}
			}
			if resFS.StorageBytesPeak != 0 {
				t.Errorf("fs backend reported %d resident bytes", resFS.StorageBytesPeak)
			}
			if resMem.StorageBytesPeak <= 0 {
				t.Errorf("mem backend reported StorageBytesPeak = %d, want > 0", resMem.StorageBytesPeak)
			}
		})
	}
}

// TestMemBackendMatchesWithCacheDisabled closes the backend × cache matrix:
// the mem backend without the artifact cache still lands byte-identical
// products.
func TestMemBackendMatchesWithCacheDisabled(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	dirRef, _ := runVariant(t, ev, FullParallel, opts)
	ref := productHashes(t, dirRef)

	opts.Storage = storage.BackendMem
	opts.Cache.Mode = CacheOff
	dir, _ := runVariant(t, ev, FullParallel, opts)
	got := productHashes(t, dir)
	if len(got) != len(ref) {
		t.Errorf("product count %d, want %d", len(got), len(ref))
	}
	for name, h := range ref {
		if got[name] != h {
			t.Errorf("product %s differs on mem with the cache disabled", name)
		}
	}
}

// TestUnknownStorageBackendIsRejected pins the error path of Options.Storage.
func TestUnknownStorageBackendIsRejected(t *testing.T) {
	opts := testOptions()
	opts.Storage = "tape"
	_, err := Run(context.Background(), t.TempDir(), SeqOptimized, opts)
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("Run with bogus backend = %v, want unknown-backend error", err)
	}
}

// linkFailFS simulates a filesystem without usable hardlinks: every Link
// fails with the wrapped errno (EXDEV for cross-device, ENOTSUP for
// no-hardlink filesystems) while all other operations hit the real disk.
type linkFailFS struct {
	faults.FS
	errno syscall.Errno
}

func (f linkFailFS) Link(oldpath, newpath string) error {
	return &os.LinkError{Op: "link", Old: oldpath, New: newpath, Err: f.errno}
}

// TestCopyArtifactFallsBackOnLinkFailure is the cross-device regression
// test: the hardlink stage-in fast path must degrade to a real copy on
// EXDEV/ENOTSUP instead of failing the stage.
func TestCopyArtifactFallsBackOnLinkFailure(t *testing.T) {
	for _, errno := range []syscall.Errno{syscall.EXDEV, syscall.ENOTSUP} {
		errno := errno
		t.Run(errno.Error(), func(t *testing.T) {
			opts := testOptions()
			opts.Observer = obs.New()
			s, err := newState(context.Background(), t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.fail(nil)
			src := s.path("src.v2")
			dst := s.path("dst.v2")
			payload := []byte("cross-device artifact payload")
			if err := os.WriteFile(src, payload, 0o644); err != nil {
				t.Fatal(err)
			}
			c := opts.Observer.Counter("bytes")
			if err := s.copyArtifact(linkFailFS{s.ws, errno}, dst, src, c); err != nil {
				t.Fatalf("copyArtifact did not fall back on %v: %v", errno, err)
			}
			got, err := os.ReadFile(dst)
			if err != nil || string(got) != string(payload) {
				t.Fatalf("destination after fallback: %q, %v", got, err)
			}
			if v := c.Value(); v != float64(len(payload)) {
				t.Errorf("staging counter charged %v bytes, want %d (a real copy)", v, len(payload))
			}
			if v := opts.Observer.Counter("links_total").Value(); v != 0 {
				t.Errorf("links_total = %v after a failed link, want 0", v)
			}
		})
	}
}

// TestCopyArtifactLinksOnHealthyFilesystem pins the fast path the fallback
// protects: on a same-device filesystem the stage-in is a hardlink, charged
// to links_total and not to the staging byte counters.
func TestCopyArtifactLinksOnHealthyFilesystem(t *testing.T) {
	opts := testOptions()
	opts.Observer = obs.New()
	s, err := newState(context.Background(), t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.fail(nil)
	src := s.path("src.v2")
	if err := os.WriteFile(src, []byte("linked"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(src, s.path("probe")); err != nil {
		t.Skipf("hardlinks unsupported here: %v", err)
	}
	c := opts.Observer.Counter("bytes")
	if err := s.copyArtifact(s.ws, s.path("dst.v2"), src, c); err != nil {
		t.Fatal(err)
	}
	if v := opts.Observer.Counter("links_total").Value(); v != 1 {
		t.Errorf("links_total = %v, want 1", v)
	}
	if v := c.Value(); v != 0 {
		t.Errorf("staging counter charged %v bytes for a hardlink, want 0", v)
	}
}

// TestQuarantineInvalidatesScratchCacheEntries drives the quarantine path
// directly and asserts the artifact store drops every entry under the
// condemned scratch folder — a poisoned record must not leave cache entries
// pointing into quarantine.
func TestQuarantineInvalidatesScratchCacheEntries(t *testing.T) {
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
	scratch := s.path("tmp_cor_00_SS01")
	if err := s.ws.MkdirAll(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	v2path := filepath.Join(scratch, smformat.V2FileName("SS01", seismic.Longitudinal))
	v2 := smformat.V2{Station: "SS01", Component: seismic.Longitudinal, DT: 0.01,
		Accel: []float64{1, 2}, Vel: []float64{3, 4}, Disp: []float64{5, 6}}
	if err := s.writeV2(v2path, v2); err != nil {
		t.Fatal(err)
	}
	if s.arts.Len() != 1 {
		t.Fatalf("cache entries before quarantine = %d, want 1", s.arts.Len())
	}
	serr := &StageError{Stage: StageVIII, Process: PCorrectedFilter, Record: "SS01", Op: "exec",
		Kind: ErrKindPermanent, Attempts: 1, Err: faults.ErrPermanent}
	rc := recordSite{stage: StageVIII, proc: PCorrectedFilter, tag: "cor", station: "SS01", scratch: scratch}
	if err := s.degraded(rc, serr); err != nil {
		t.Fatalf("degraded propagated a record failure: %v", err)
	}
	if s.arts.Len() != 0 {
		t.Errorf("cache entries after quarantine = %d, want 0", s.arts.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, "tmp_cor_00_SS01", smformat.V2FileName("SS01", seismic.Longitudinal))); err != nil {
		t.Errorf("quarantined scratch contents not preserved on disk: %v", err)
	}
}

// TestPipelinedQuarantineCacheInteraction is the satellite scenario for the
// quarantine × artifact-cache interaction under the Pipelined variant: a
// poisoned record is quarantined while the survivors' products stay
// byte-identical to a fault-free run, with the cache on and off — and the
// whole matrix repeats on the mem backend.
func TestPipelinedQuarantineCacheInteraction(t *testing.T) {
	ev := testEvent(t)
	cleanDir, _ := runVariant(t, ev, Pipelined, testOptions())
	cleanHashes := productHashes(t, cleanDir)

	for _, backend := range []storage.Backend{storage.BackendFS, storage.BackendMem} {
		for _, noCache := range []bool{false, true} {
			backend, noCache := backend, noCache
			t.Run(fmt.Sprintf("%s/cache=%v", backend, !noCache), func(t *testing.T) {
				opts := testOptions()
				opts.Storage = backend
				if noCache {
					opts.Cache.Mode = CacheOff
				}
				opts.Observer = obs.New()
				opts.Retry = RetryPolicy{BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond}
				opts.Chaos = &faults.Config{Seed: 7, Rules: []faults.Rule{
					{Record: "SS02", Stage: "cor", Op: "exec", Kind: faults.KindPermanent},
				}}
				dir := filepath.Join(t.TempDir(), "work")
				if err := PrepareWorkDir(dir, ev); err != nil {
					t.Fatal(err)
				}
				res, err := Run(context.Background(), dir, Pipelined, opts)
				if err != nil {
					t.Fatalf("poisoned pipelined run failed outright: %v", err)
				}
				if len(res.Quarantined) != 1 || res.Quarantined[0].Station != "SS02" {
					t.Fatalf("quarantined = %+v, want exactly SS02", res.Quarantined)
				}
				assertOnlyQuarantineDirs(t, dir, res)
				got := chaosProductHashes(t, dir)
				for name, h := range cleanHashes {
					if strings.HasSuffix(name, ".meta") || strings.HasPrefix(name, "SS02") {
						continue
					}
					if got[name] != h {
						t.Errorf("survivor product %s differs from fault-free run", name)
					}
				}
				// The record failed at stage VIII (corrected filter): nothing
				// downstream of the quarantine may exist — no response spectra,
				// GEM exports or accelerogram and response plots for SS02,
				// neither in the work directory nor among the leftovers swept
				// into quarantine/SS02/.
				assertQuarantinedProducts(t, dir, Pipelined, "SS02", PCorrectedFilter)
			})
		}
	}
}

// TestMemBackendReportsResidentGauges is the memory-pressure satellite: a
// mem-backend run must surface storage_bytes_resident (current and peak)
// through the observer and the Prometheus rendering.
func TestMemBackendReportsResidentGauges(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	opts.Storage = storage.BackendMem
	opts.Observer = obs.New()
	_, res := runVariant(t, ev, FullParallel, opts)
	if res.StorageBytesPeak <= 0 {
		t.Fatalf("StorageBytesPeak = %d, want > 0", res.StorageBytesPeak)
	}
	o := opts.Observer
	if v := o.Gauge("storage_bytes_resident_peak").Value(); int64(v) != res.StorageBytesPeak {
		t.Errorf("storage_bytes_resident_peak gauge = %v, result says %d", v, res.StorageBytesPeak)
	}
	// Everything was materialized into the work directory at the end of the
	// run, so current residency is back to zero.
	if v := o.Gauge("storage_bytes_resident").Value(); v != 0 {
		t.Errorf("storage_bytes_resident gauge = %v after materialize, want 0", v)
	}
	var sb strings.Builder
	if err := o.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# TYPE storage_bytes_resident_peak gauge") {
		t.Error("Prometheus rendering missing storage_bytes_resident_peak")
	}
}

// TestKeepTempDirsMaterializesScratch pins the debugging contract on the
// mem backend: KeepTempDirs leaves the scratch folders on real disk with
// their staged contents readable by plain tools.
func TestKeepTempDirsMaterializesScratch(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	opts.Storage = storage.BackendMem
	opts.KeepTempDirs = true
	dir := filepath.Join(t.TempDir(), "work")
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
	scratch := 0
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "tmp_") {
			scratch++
			sub, err := os.ReadDir(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if len(sub) == 0 {
				t.Errorf("kept scratch dir %s is empty on disk", e.Name())
			}
		}
	}
	// Three temp-folder stages (def, cor, fou) times three stations.
	if scratch != 9 {
		t.Errorf("kept %d scratch dirs, want 9", scratch)
	}
}
