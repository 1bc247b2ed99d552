package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"accelproc/internal/artifact"
	"accelproc/internal/faults"
	"accelproc/internal/obs"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
	"accelproc/internal/storage"
	"accelproc/internal/synth"
)

// The warm-restart suite: the tentpole invariant of the persistent action
// cache.  A re-run of an already-processed event against the surviving
// <dir>/.smcache must restore every per-(record,process) node instead of
// recomputing it, and flipping one station's input must re-execute exactly
// that record's subgraph — with outputs byte-identical to a cold run in
// every case.

// perRecordNodes is the number of per-(record,process) dataflow nodes each
// station contributes: processes #3, #4, #7, #9, #10, #13, #15, #16, #18,
// and #19.
const perRecordNodes = 10

// persistEvent generates the 8-station warm-restart event (the paper-shaped
// record count the acceptance criterion names).
func persistEvent(t *testing.T, seed int64) synth.EventSpec {
	t.Helper()
	return synth.EventSpec{
		Name: "persist", Files: 8, TotalPoints: 9600, Magnitude: 5.2, Seed: seed,
	}
}

// preparePersistDir writes the event's inputs into a fresh work directory,
// optionally overwriting one station's input with the same station from a
// differently-seeded event (the "one changed record" scenario).
func preparePersistDir(t *testing.T, dir string, flipStation string) {
	t.Helper()
	ev, err := synth.Event(persistEvent(t, 41))
	if err != nil {
		t.Fatal(err)
	}
	if err := PrepareWorkDir(dir, ev); err != nil {
		t.Fatal(err)
	}
	if flipStation == "" {
		return
	}
	flipped, err := synth.Event(persistEvent(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	alt := t.TempDir()
	if err := PrepareWorkDir(alt, flipped); err != nil {
		t.Fatal(err)
	}
	name := smformat.V1FileName(flipStation)
	data, err := os.ReadFile(filepath.Join(alt, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// persistOptions returns fresh options for one pipelined run with the
// persistent cache on the given backend; every run gets its own observer so
// counters never bleed across runs.
func persistOptions(backend storage.Backend) Options {
	opts := testOptions()
	opts.Cache = CacheConfig{Mode: CachePersistent}
	opts.Storage = backend
	opts.Observer = obs.New()
	return opts
}

func recordNodesExecuted(opts Options) int64 {
	return int64(opts.Observer.Counter("dataflow_record_nodes_executed_total").Value())
}

func assertSameProducts(t *testing.T, got, ref map[string]string, when string) {
	t.Helper()
	if len(got) != len(ref) {
		t.Errorf("%s: product count %d, want %d", when, len(got), len(ref))
	}
	for name, h := range ref {
		if got[name] != h {
			t.Errorf("%s: product %s differs from the cold run", when, name)
		}
	}
}

// tempFolderModes are the two bodies of Pipelined's filter and Fourier
// record nodes: the temp-folder jobs, and the direct loops
// (Options.NoTempFolders).
var tempFolderModes = []struct {
	name   string
	noTemp bool
}{{"temp-folders", false}, {"direct", true}}

func TestWarmRestartSkipsUnchangedRecords(t *testing.T) {
	for _, backend := range []storage.Backend{storage.BackendFS, storage.BackendMem} {
		t.Run(string(backend), func(t *testing.T) {
			for _, mode := range tempFolderModes {
				t.Run(mode.name, func(t *testing.T) {
					warmRestartSkipsUnchangedRecords(t, backend, mode.noTemp)
				})
			}
		})
	}
}

func warmRestartSkipsUnchangedRecords(t *testing.T, backend storage.Backend, noTemp bool) {
	options := func() Options {
		opts := persistOptions(backend)
		opts.NoTempFolders = noTemp
		return opts
	}
	ctx := context.Background()
	const stations = 8
	dir := filepath.Join(t.TempDir(), "work")
	preparePersistDir(t, dir, "")

	// Cold run: every per-record node executes and populates the cache.
	cold := options()
	res, err := Run(ctx, dir, Pipelined, cold)
	if err != nil {
		t.Fatal(err)
	}
	if got := recordNodesExecuted(cold); got != stations*perRecordNodes {
		t.Fatalf("cold run executed %d record nodes, want %d", got, stations*perRecordNodes)
	}
	if res.Cache.ActionHits != 0 || res.Cache.ActionMisses != stations*perRecordNodes {
		t.Fatalf("cold run cache stats %+v, want 0 hits / %d misses", res.Cache, stations*perRecordNodes)
	}
	coldRef := productHashes(t, dir)

	// Fully-warm restart: a fresh pipeline state over the surviving
	// .smcache restores everything.
	if err := CleanOutputs(dir); err != nil {
		t.Fatal(err)
	}
	warm := options()
	res, err = Run(ctx, dir, Pipelined, warm)
	if err != nil {
		t.Fatal(err)
	}
	if got := recordNodesExecuted(warm); got != 0 {
		t.Errorf("fully-warm run executed %d record nodes, want 0", got)
	}
	if res.Cache.ActionHits != stations*perRecordNodes || res.Cache.ActionMisses != 0 {
		t.Errorf("fully-warm cache stats %+v, want %d hits / 0 misses", res.Cache, stations*perRecordNodes)
	}
	if hv := warm.Observer.Counter("action_cache_hits_total").Value(); int64(hv) != res.Cache.ActionHits {
		t.Errorf("action_cache_hits_total = %v, Result says %d", hv, res.Cache.ActionHits)
	}
	assertSameProducts(t, productHashes(t, dir), coldRef, "fully warm")

	// Flip one station's input: only that record's subgraph re-executes.
	preparePersistDir(t, dir, "SS03")
	if err := CleanOutputs(dir); err != nil {
		t.Fatal(err)
	}
	flip := options()
	res, err = Run(ctx, dir, Pipelined, flip)
	if err != nil {
		t.Fatal(err)
	}
	if got := recordNodesExecuted(flip); got != perRecordNodes {
		t.Errorf("flipped run executed %d record nodes, want %d (only SS03's subgraph)", got, perRecordNodes)
	}
	if want := int64((stations - 1) * perRecordNodes); res.Cache.ActionHits != want {
		t.Errorf("flipped run action hits = %d, want %d", res.Cache.ActionHits, want)
	}

	// The flipped warm outputs must be byte-identical to a cold run
	// over the same (flipped) inputs.
	refDir := filepath.Join(t.TempDir(), "ref")
	preparePersistDir(t, refDir, "SS03")
	refOpts := options()
	if _, err := Run(ctx, refDir, Pipelined, refOpts); err != nil {
		t.Fatal(err)
	}
	assertSameProducts(t, productHashes(t, dir), productHashes(t, refDir), "flipped warm")
}

// TestWarmRestartCorruptedEntryRecomputes damages the persisted cache and
// asserts the warm run degrades to recomputation — a miss, never an error —
// with outputs still byte-identical.
func TestWarmRestartCorruptedEntryRecomputes(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "work")
	preparePersistDir(t, dir, "")
	cold := persistOptions(storage.BackendFS)
	if _, err := Run(ctx, dir, Pipelined, cold); err != nil {
		t.Fatal(err)
	}
	coldRef := productHashes(t, dir)

	// Truncate one cached blob behind the cache's back.
	blobsDir := filepath.Join(dir, CacheDirName, "blobs")
	entries, err := os.ReadDir(blobsDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cached blobs: %v %v", entries, err)
	}
	victim := filepath.Join(blobsDir, entries[len(entries)/2].Name())
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	if err := CleanOutputs(dir); err != nil {
		t.Fatal(err)
	}
	warm := persistOptions(storage.BackendFS)
	res, err := Run(ctx, dir, Pipelined, warm)
	if err != nil {
		t.Fatalf("warm run over a damaged cache failed: %v", err)
	}
	if res.Cache.ActionMisses == 0 {
		t.Error("truncated blob did not register as a miss")
	}
	if got := recordNodesExecuted(warm); got == 0 {
		t.Error("damaged entry was not recomputed")
	}
	assertSameProducts(t, productHashes(t, dir), coldRef, "damaged warm")
}

// TestPersistentCacheMatchesMemoOnlyOutputs pins the API redesign's ground
// rule: the cache mode changes work, never bytes.
func TestPersistentCacheMatchesMemoOnlyOutputs(t *testing.T) {
	ev := testEvent(t)
	ref, _ := runVariant(t, ev, Pipelined, testOptions())
	persist := testOptions()
	persist.Cache = CacheConfig{Mode: CachePersistent}
	dir, _ := runVariant(t, ev, Pipelined, persist)
	assertSameProducts(t, productHashes(t, dir), productHashes(t, ref), "persistent vs memo")
}

func TestParseCacheFlag(t *testing.T) {
	cases := []struct {
		in   string
		want CacheConfig
		bad  bool
	}{
		{in: "", want: CacheConfig{Mode: CacheMemory}},
		{in: "mem", want: CacheConfig{Mode: CacheMemory}},
		{in: "memory", want: CacheConfig{Mode: CacheMemory}},
		{in: "off", want: CacheConfig{Mode: CacheOff}},
		{in: "none", want: CacheConfig{Mode: CacheOff}},
		{in: "disk", want: CacheConfig{Mode: CachePersistent}},
		{in: "persistent", want: CacheConfig{Mode: CachePersistent}},
		{in: "disk:/var/cache/sm", want: CacheConfig{Mode: CachePersistent, Dir: "/var/cache/sm"}},
		{in: "DISK", want: CacheConfig{Mode: CachePersistent}},
		{in: "floppy", bad: true},
		{in: "mem:/tmp/x", bad: true},
	}
	for _, c := range cases {
		got, err := ParseCacheFlag(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseCacheFlag(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCacheFlag(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseCacheFlag(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// assertNoTmpFiles fails if any *.tmp file survives anywhere under dir.
func assertNoTmpFiles(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			t.Errorf("stray temp file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWarmRestartRewrittenProductsRestore rewrites cached products after a
// cold run, through both workspace write paths.  Put linked those products
// into the cache, so the rewrites must leave every blob intact (the scrub
// stays clean) and a warm rerun must bring the recorded bytes back from
// full hits.
func TestWarmRestartRewrittenProductsRestore(t *testing.T) {
	for _, backend := range []storage.Backend{storage.BackendFS, storage.BackendMem} {
		t.Run(string(backend), func(t *testing.T) {
			ctx := context.Background()
			dir := filepath.Join(t.TempDir(), "work")
			preparePersistDir(t, dir, "")
			if _, err := Run(ctx, dir, Pipelined, persistOptions(backend)); err != nil {
				t.Fatal(err)
			}
			coldRef := productHashes(t, dir)

			ws, err := storage.New(backend, dir)
			if err != nil {
				t.Fatal(err)
			}
			v2 := filepath.Join(dir, smformat.V2FileName("SS03", seismic.Components[0]))
			if err := ws.WriteFile(v2, []byte("rewritten by WriteFile\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := ws.Create(filepath.Join(dir, smformat.ResponseFileName("SS05", seismic.Components[1])))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("rewritten by Create\n")); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ws.Materialize(dir); err != nil {
				t.Fatal(err)
			}
			if err := ws.Temps().Close(); err != nil {
				t.Fatal(err)
			}
			if r, err := artifact.Scrub(storage.Disk(), filepath.Join(dir, CacheDirName)); err != nil || !r.Clean() {
				t.Fatalf("rewriting products damaged the cache: %+v %v", r, err)
			}

			warm := persistOptions(backend)
			res, err := Run(ctx, dir, Pipelined, warm)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(8 * perRecordNodes); res.Cache.ActionHits != want || res.Cache.ActionMisses != 0 {
				t.Errorf("warm cache stats %+v, want %d hits / 0 misses", res.Cache, want)
			}
			assertSameProducts(t, productHashes(t, dir), coldRef, "rewritten warm")
			assertNoTmpFiles(t, dir)
		})
	}
}

// TestWarmRestartEditedLinkedProductLeavesNoTmp edits a product in place
// after a cold fs run.  The product is a hardlink of its cache blob, so the
// edit reaches the blob too.  The rerun must treat that entry as damaged
// rather than link the blob back over itself, recompute the recorded bytes,
// and leave no *.tmp behind.
func TestWarmRestartEditedLinkedProductLeavesNoTmp(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "work")
	preparePersistDir(t, dir, "")
	if _, err := Run(ctx, dir, Pipelined, persistOptions(storage.BackendFS)); err != nil {
		t.Fatal(err)
	}
	coldRef := productHashes(t, dir)

	v2 := filepath.Join(dir, smformat.V2FileName("SS03", seismic.Components[0]))
	f, err := os.OpenFile(v2, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("#"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Move mtime explicitly so the edit shows in the stat fingerprint even
	// within one timestamp tick.
	later := time.Now().Add(time.Second)
	if err := os.Chtimes(v2, later, later); err != nil {
		t.Fatal(err)
	}

	res, err := Run(ctx, dir, Pipelined, persistOptions(storage.BackendFS))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.ActionMisses == 0 {
		t.Error("the rerun served the edited blob")
	}
	assertSameProducts(t, productHashes(t, dir), coldRef, "rerun after edit")
	assertNoTmpFiles(t, dir)
}

// TestActionCacheDigestFollowsContent pins the v3 digest: inputs enter as
// (name, content sum, size), so a one-byte change of a same-size input,
// rewritten through the workspace, moves the digest, restoring the bytes
// restores it, and the fs and mem backends agree for identical inputs.
func TestActionCacheDigestFollowsContent(t *testing.T) {
	digests := map[storage.Backend][3]artifact.ActionID{}
	for _, backend := range []storage.Backend{storage.BackendFS, storage.BackendMem} {
		dir := t.TempDir()
		opts := testOptions()
		opts.Cache = CacheConfig{Mode: CachePersistent}
		opts.Storage = backend
		s, err := newState(context.Background(), dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		b := &stepGraph{s: s}
		names := componentNames(smformat.V2FileName, "SS01")
		for i, name := range names {
			if err := s.ws.WriteFile(s.path(name), []byte(fmt.Sprintf("component %d bytes", i)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		digest := func() artifact.ActionID {
			t.Helper()
			id, ok := b.nodeAction(PFourier, "SS01")
			if !ok {
				t.Fatalf("%s: node not cacheable", backend)
			}
			return id
		}
		var ids [3]artifact.ActionID
		ids[0] = digest()
		if err := s.ws.WriteFile(s.path(names[1]), []byte("component 1 bytez"), 0o644); err != nil {
			t.Fatal(err)
		}
		ids[1] = digest()
		if err := s.ws.WriteFile(s.path(names[1]), []byte("component 1 bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
		ids[2] = digest()
		if ids[1] == ids[0] {
			t.Errorf("%s: a one-byte same-size change kept the digest", backend)
		}
		if ids[2] != ids[0] {
			t.Errorf("%s: restoring the bytes did not restore the digest", backend)
		}
		digests[backend] = ids
	}
	if digests[storage.BackendFS] != digests[storage.BackendMem] {
		t.Error("fs and mem digests differ for identical inputs")
	}
}

// TestSideChannelJournalMatchesActionCache pins the one side-channel codec:
// for the filters (#4, #13, with temp folders on and off) and the corner
// pick (#10), the payload a node journals is the blob the action cache
// stored for it, and restoring the payloads from either — a journal resume
// with no cache, a warm run with no journal — rewrites max-values and the
// filter parameters byte for byte.
func TestSideChannelJournalMatchesActionCache(t *testing.T) {
	for _, mode := range tempFolderModes {
		t.Run(mode.name, func(t *testing.T) {
			ctx := context.Background()
			dir := filepath.Join(t.TempDir(), "work")
			if err := PrepareWorkDir(dir, testEvent(t)); err != nil {
				t.Fatal(err)
			}
			opts := persistOptions(storage.BackendFS)
			opts.Journal = true
			opts.NoTempFolders = mode.noTemp
			if _, err := Run(ctx, dir, Pipelined, opts); err != nil {
				t.Fatal(err)
			}
			merged := []string{smformat.MaxValuesFile, smformat.FilterParamsFile}
			ref := map[string][]byte{}
			for _, name := range merged {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				ref[name] = data
			}
			assertMerged := func(when string) {
				t.Helper()
				for _, name := range merged {
					if data, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(data, ref[name]) {
						t.Errorf("%s: %s differs from the first run's (%v)", when, name, err)
					}
				}
			}

			// Look up every side-carrying node's cache entry.  #4 was keyed
			// by the default corners, before #10 added its picks.
			s, err := newState(ctx, dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.fail(nil)
			stations, err := s.recordStations()
			if err != nil {
				t.Fatal(err)
			}
			c := &stepGraph{s: s}
			blobs := map[nodeKey][]byte{}
			for _, pid := range []ProcessID{PDefaultFilter, PCorrectedFilter, PPickCorners} {
				if pid == PDefaultFilter {
					if err := s.procInitFilterParams(); err != nil {
						t.Fatal(err)
					}
				}
				for _, st := range stations {
					id, ok := c.nodeAction(pid, st)
					if !ok {
						t.Fatalf("#%d %s: not cacheable", pid, st)
					}
					hit, err := s.acache.Restore(id, func(name string, data []byte) error {
						if name == sideCodecs[pid].blob {
							blobs[nodeKey{pid: pid, st: st}] = data
						}
						return nil
					})
					if !hit || err != nil {
						t.Fatalf("#%d %s: cache entry missing (%v)", pid, st, err)
					}
				}
				if pid == PDefaultFilter {
					if err := os.WriteFile(filepath.Join(dir, smformat.FilterParamsFile), ref[smformat.FilterParamsFile], 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			sides := 0
			for _, n := range parseJournal(readJournal(t, dir)).nodes {
				if _, ok := sideCodecs[n.pid]; !ok {
					continue
				}
				sides++
				if blob := blobs[nodeKey{pid: n.pid, st: n.station}]; len(n.side) == 0 || !bytes.Equal(n.side, blob) {
					t.Errorf("#%d %s: journaled side payload %q, cached blob %q", n.pid, n.station, n.side, blob)
				}
			}
			if sides != len(blobs) {
				t.Errorf("journal carries %d side payloads, the cache %d", sides, len(blobs))
			}

			// Restore from the journal alone.
			dropFinish(t, dir)
			for _, name := range merged {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					t.Fatal(err)
				}
			}
			resume := journalOptions()
			resume.NoTempFolders = mode.noTemp
			resume.Resume = true
			res, err := Run(ctx, dir, Pipelined, resume)
			if err != nil {
				t.Fatal(err)
			}
			if got := recordNodesExecuted(resume); got != 0 || !res.Resume.Resumed {
				t.Errorf("journal resume executed %d record nodes (resumed %v), want 0", got, res.Resume.Resumed)
			}
			assertMerged("journal resume")

			// Restore from the action cache alone.
			if err := CleanOutputs(dir); err != nil {
				t.Fatal(err)
			}
			warm := persistOptions(storage.BackendFS)
			warm.NoTempFolders = mode.noTemp
			if _, err := Run(ctx, dir, Pipelined, warm); err != nil {
				t.Fatal(err)
			}
			if got := recordNodesExecuted(warm); got != 0 {
				t.Errorf("warm run executed %d record nodes, want 0", got)
			}
			assertMerged("warm run")
		})
	}
}

// TestPersistentCacheRejectsStagedAndChaos: the persistent action cache
// serves Pipelined's record nodes only, and chaos must exercise the real
// staging protocol, so both combinations are refused up front instead of
// running with the cache silently unused.
func TestPersistentCacheRejectsStagedAndChaos(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "work")
	if err := PrepareWorkDir(dir, testEvent(t)); err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Cache = CacheConfig{Mode: CachePersistent}
	for _, v := range []Variant{SeqOriginal, SeqOptimized, PartialParallel, FullParallel} {
		_, err := Run(ctx, dir, v, opts)
		if !errors.Is(err, ErrUnsupported) || !strings.Contains(err.Error(), "CachePersistent with variant "+v.String()) {
			t.Errorf("Run(%v, CachePersistent) = %v, want ErrUnsupported naming the pair", v, err)
		}
		if _, err := RunBatch(ctx, []string{dir}, v, opts); !errors.Is(err, ErrUnsupported) {
			t.Errorf("RunBatch(%v, CachePersistent) = %v, want ErrUnsupported", v, err)
		}
	}
	opts.Chaos = &faults.Config{Seed: 1, Rate: 0.5}
	_, err := Run(ctx, dir, Pipelined, opts)
	if !errors.Is(err, ErrUnsupported) || !strings.Contains(err.Error(), "CachePersistent with Chaos") {
		t.Errorf("Run(CachePersistent+Chaos) = %v, want ErrUnsupported naming the pair", err)
	}
	if _, err := RunBatch(ctx, []string{dir}, Pipelined, opts); !errors.Is(err, ErrUnsupported) {
		t.Errorf("RunBatch(CachePersistent+Chaos) = %v, want ErrUnsupported", err)
	}
	if _, err := os.Stat(filepath.Join(dir, CacheDirName)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("rejected runs touched the work directory: %v", err)
	}
}
