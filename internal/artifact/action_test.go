package artifact

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"accelproc/internal/obs"
	"accelproc/internal/storage"
)

// cacheBackends runs a subtest against both Workspace implementations the
// action cache persists through.
func cacheBackends(t *testing.T, fn func(t *testing.T, fsys CacheFS, root string)) {
	t.Helper()
	t.Run("fs", func(t *testing.T) {
		fn(t, storage.OS{}, filepath.Join(t.TempDir(), ".smcache"))
	})
	t.Run("mem", func(t *testing.T) {
		fn(t, storage.NewMem(), filepath.Join(t.TempDir(), ".smcache"))
	})
}

func testID(s string) ActionID {
	h := NewHasher("test/v1")
	h.String(s)
	return h.Sum()
}

// restoreAll collects a Restore's outputs into a map.
func restoreAll(t *testing.T, c *ActionCache, id ActionID) (map[string]string, bool) {
	t.Helper()
	got := map[string]string{}
	ok, err := c.Restore(id, func(name string, data []byte) error {
		got[name] = string(data)
		return nil
	})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return got, ok
}

func TestActionCacheRoundTrip(t *testing.T) {
	cacheBackends(t, func(t *testing.T, fsys CacheFS, root string) {
		c, err := NewActionCache(fsys, root, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		id := testID("round-trip")
		if _, ok := restoreAll(t, c, id); ok {
			t.Fatal("hit on empty cache")
		}
		outs := []Blob{
			{Name: "a.v2", Data: []byte("component a")},
			{Name: "@side", Data: []byte("side channel")},
		}
		if err := c.Put(id, outs); err != nil {
			t.Fatal(err)
		}
		got, ok := restoreAll(t, c, id)
		if !ok {
			t.Fatal("miss after Put")
		}
		if got["a.v2"] != "component a" || got["@side"] != "side channel" {
			t.Fatalf("restored %v", got)
		}
		hits, misses, evicts := c.Counts()
		if hits != 1 || misses != 1 || evicts != 0 {
			t.Fatalf("counts = %d/%d/%d, want 1/1/0", hits, misses, evicts)
		}
	})
}

func TestActionCachePersistsAcrossOpens(t *testing.T) {
	cacheBackends(t, func(t *testing.T, fsys CacheFS, root string) {
		c, err := NewActionCache(fsys, root, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		id := testID("across-opens")
		if err := c.Put(id, []Blob{{Name: "x", Data: []byte("payload")}}); err != nil {
			t.Fatal(err)
		}
		// A second cache over the same root — a process restart — must index
		// the persisted entry.
		c2, err := NewActionCache(fsys, root, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if c2.Len() != 1 {
			t.Fatalf("reopened Len = %d, want 1", c2.Len())
		}
		if got, ok := restoreAll(t, c2, id); !ok || got["x"] != "payload" {
			t.Fatalf("reopened restore: ok=%v got=%v", ok, got)
		}
	})
}

func TestActionCacheTruncatedBlobIsMiss(t *testing.T) {
	cacheBackends(t, func(t *testing.T, fsys CacheFS, root string) {
		c, err := NewActionCache(fsys, root, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		id := testID("truncated")
		if err := c.Put(id, []Blob{{Name: "x", Data: []byte("full payload")}}); err != nil {
			t.Fatal(err)
		}
		// Truncate the blob behind the cache's back: damage, not an error.
		blobs, err := fsys.List(filepath.Join(root, "blobs"))
		if err != nil || len(blobs) != 1 {
			t.Fatalf("blobs: %v %v", blobs, err)
		}
		p := filepath.Join(root, "blobs", blobs[0].Name())
		if err := fsys.WriteFile(p, []byte("full"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := restoreAll(t, c, id); ok {
			t.Fatal("truncated blob restored as a hit")
		}
		if c.Len() != 0 {
			t.Fatalf("damaged entry not dropped, Len = %d", c.Len())
		}
		// The id is re-cacheable afterwards.
		if err := c.Put(id, []Blob{{Name: "x", Data: []byte("full payload")}}); err != nil {
			t.Fatal(err)
		}
		if got, ok := restoreAll(t, c, id); !ok || got["x"] != "full payload" {
			t.Fatalf("re-put restore: ok=%v got=%v", ok, got)
		}
	})
}

func TestActionCacheVerifyCatchesSameSizeCorruption(t *testing.T) {
	cacheBackends(t, func(t *testing.T, fsys CacheFS, root string) {
		corrupt := func(c *ActionCache, id ActionID) {
			t.Helper()
			if err := c.Put(id, []Blob{{Name: "x", Data: []byte("aaaaaaaa")}}); err != nil {
				t.Fatal(err)
			}
			blobs, err := fsys.List(filepath.Join(root, "blobs"))
			if err != nil || len(blobs) != 1 {
				t.Fatalf("blobs: %v %v", blobs, err)
			}
			p := filepath.Join(root, "blobs", blobs[0].Name())
			if err := fsys.WriteFile(p, []byte("bbbbbbbb"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Without verify the size check passes and the corrupt bytes flow
		// through — the documented tradeoff.
		c, err := NewActionCache(fsys, root, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(c, testID("same-size"))
		if got, ok := restoreAll(t, c, testID("same-size")); !ok || got["x"] != "bbbbbbbb" {
			t.Fatalf("unverified restore: ok=%v got=%v", ok, got)
		}
		// With verify the checksum mismatch is a miss that drops the entry.
		root2 := filepath.Join(t.TempDir(), ".smcache")
		cv, err := NewActionCache(fsys, root2, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		root = root2
		corrupt(cv, testID("same-size"))
		if _, ok := restoreAll(t, cv, testID("same-size")); ok {
			t.Fatal("verify restored same-size corruption")
		}
		if cv.Len() != 0 {
			t.Fatalf("corrupt entry not dropped, Len = %d", cv.Len())
		}
	})
}

func TestActionCacheLRUEviction(t *testing.T) {
	cacheBackends(t, func(t *testing.T, fsys CacheFS, root string) {
		// Each entry holds one 8-byte blob; a 20-byte bound fits two.
		c, err := NewActionCache(fsys, root, 20, false)
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		evCtr := o.Counter("evictions")
		c.SetCounters(o.Counter("h"), o.Counter("m"), evCtr, o.Gauge("b"))
		for i := 0; i < 3; i++ {
			id := testID(fmt.Sprintf("entry-%d", i))
			data := []byte(fmt.Sprintf("payload%d", i))
			if err := c.Put(id, []Blob{{Name: "x", Data: data}}); err != nil {
				t.Fatal(err)
			}
		}
		if c.Len() != 2 || c.Bytes() != 16 {
			t.Fatalf("after 3 puts: Len=%d Bytes=%d, want 2/16", c.Len(), c.Bytes())
		}
		if _, ok := restoreAll(t, c, testID("entry-0")); ok {
			t.Fatal("least-recently-used entry survived eviction")
		}
		if _, ok := restoreAll(t, c, testID("entry-2")); !ok {
			t.Fatal("most recent entry evicted")
		}
		if _, _, ev := c.Counts(); ev != 1 {
			t.Fatalf("evictions = %d, want 1", ev)
		}
		if got := evCtr.Value(); got != 1 {
			t.Fatalf("eviction counter = %v, want 1", got)
		}
	})
}

func TestActionCacheRestoreFreshensLRU(t *testing.T) {
	cacheBackends(t, func(t *testing.T, fsys CacheFS, root string) {
		c, err := NewActionCache(fsys, root, 20, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			id := testID(fmt.Sprintf("entry-%d", i))
			if err := c.Put(id, []Blob{{Name: "x", Data: []byte(fmt.Sprintf("payload%d", i))}}); err != nil {
				t.Fatal(err)
			}
		}
		// Touch entry-0 so entry-1 becomes the eviction victim.
		if _, ok := restoreAll(t, c, testID("entry-0")); !ok {
			t.Fatal("entry-0 missing")
		}
		if err := c.Put(testID("entry-2"), []Blob{{Name: "x", Data: []byte("payload2")}}); err != nil {
			t.Fatal(err)
		}
		if _, ok := restoreAll(t, c, testID("entry-0")); !ok {
			t.Fatal("freshened entry evicted")
		}
		if _, ok := restoreAll(t, c, testID("entry-1")); ok {
			t.Fatal("stale entry survived")
		}
	})
}

func TestActionCacheCorruptManifestDroppedOnLoad(t *testing.T) {
	cacheBackends(t, func(t *testing.T, fsys CacheFS, root string) {
		c, err := NewActionCache(fsys, root, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		good := testID("good")
		if err := c.Put(good, []Blob{{Name: "x", Data: []byte("keep me")}}); err != nil {
			t.Fatal(err)
		}
		// A garbage manifest under a well-formed name, plus a stray file.
		bad := testID("bad")
		if err := fsys.WriteFile(filepath.Join(root, "actions", bad.String()), []byte("not a manifest"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := fsys.WriteFile(filepath.Join(root, "actions", "stray.tmp"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		c2, err := NewActionCache(fsys, root, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if c2.Len() != 1 {
			t.Fatalf("reopened Len = %d, want 1", c2.Len())
		}
		if got, ok := restoreAll(t, c2, good); !ok || got["x"] != "keep me" {
			t.Fatalf("good entry: ok=%v got=%v", ok, got)
		}
		if entries, err := fsys.List(filepath.Join(root, "actions")); err != nil || len(entries) != 1 {
			t.Fatalf("corrupt manifests not removed: %v %v", entries, err)
		}
	})
}

func TestActionCacheOrphanBlobSweptOnLoad(t *testing.T) {
	cacheBackends(t, func(t *testing.T, fsys CacheFS, root string) {
		c, err := NewActionCache(fsys, root, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(testID("live"), []Blob{{Name: "x", Data: []byte("live blob")}}); err != nil {
			t.Fatal(err)
		}
		// An orphan blob, as left by a crash between blob and manifest writes.
		orphan := testID("orphan")
		if err := fsys.WriteFile(filepath.Join(root, "blobs", orphan.String()), []byte("dead"), 0o644); err != nil {
			t.Fatal(err)
		}
		c2, err := NewActionCache(fsys, root, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if c2.Bytes() != int64(len("live blob")) {
			t.Fatalf("Bytes = %d, want %d", c2.Bytes(), len("live blob"))
		}
		if blobs, err := fsys.List(filepath.Join(root, "blobs")); err != nil || len(blobs) != 1 {
			t.Fatalf("orphan blob not swept: %v %v", blobs, err)
		}
	})
}

func TestActionCacheSharedBlobRefcount(t *testing.T) {
	cacheBackends(t, func(t *testing.T, fsys CacheFS, root string) {
		// Two bounded entries sharing one blob: bytes are charged once, and
		// evicting one entry must not strand or delete the shared content.
		c, err := NewActionCache(fsys, root, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		shared := []byte("shared content")
		if err := c.Put(testID("one"), []Blob{{Name: "x", Data: shared}}); err != nil {
			t.Fatal(err)
		}
		if err := c.Put(testID("two"), []Blob{{Name: "y", Data: shared}}); err != nil {
			t.Fatal(err)
		}
		if c.Bytes() != int64(len(shared)) {
			t.Fatalf("shared blob double-charged: Bytes = %d, want %d", c.Bytes(), len(shared))
		}
		c.dropEntry(testID("one"))
		if got, ok := restoreAll(t, c, testID("two")); !ok || got["y"] != string(shared) {
			t.Fatalf("surviving entry lost shared blob: ok=%v got=%v", ok, got)
		}
		c.dropEntry(testID("two"))
		if c.Bytes() != 0 {
			t.Fatalf("Bytes = %d after dropping all entries", c.Bytes())
		}
	})
}

func TestActionCacheNilSafe(t *testing.T) {
	var c *ActionCache
	if ok, err := c.Restore(testID("x"), nil); ok || err != nil {
		t.Fatal("nil cache restored")
	}
	if err := c.Put(testID("x"), nil); err != nil {
		t.Fatal(err)
	}
	c.SetCounters(nil, nil, nil, nil)
	if h, m, e := c.Counts(); h != 0 || m != 0 || e != 0 {
		t.Fatal("nil cache has counts")
	}
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Fatal("nil cache has contents")
	}
}

func TestActionCacheConcurrent(t *testing.T) {
	cacheBackends(t, func(t *testing.T, fsys CacheFS, root string) {
		c, err := NewActionCache(fsys, root, 1<<10, false)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					id := testID(fmt.Sprintf("c-%d", (w+i)%16))
					if i%2 == 0 {
						_ = c.Put(id, []Blob{{Name: "x", Data: []byte(fmt.Sprintf("data-%d", i))}})
					} else {
						_, _ = c.Restore(id, func(string, []byte) error { return nil })
					}
				}
			}(w)
		}
		wg.Wait()
	})
}

func TestHasherFieldBoundaries(t *testing.T) {
	a := NewHasher("s")
	a.String("ab")
	a.String("c")
	b := NewHasher("s")
	b.String("a")
	b.String("bc")
	if a.Sum() == b.Sum() {
		t.Fatal("field concatenation aliased two keys")
	}
	s1 := NewHasher("scheme-1")
	s2 := NewHasher("scheme-2")
	s1.String("x")
	s2.String("x")
	if s1.Sum() == s2.Sum() {
		t.Fatal("scheme not folded into the digest")
	}
}

// restoreInto runs a linked restore into dir, collecting side-channel
// outputs into a map.
func restoreInto(t *testing.T, c *ActionCache, id ActionID, dir string) (map[string]string, bool) {
	t.Helper()
	side := map[string]string{}
	ok, err := c.RestoreInto(id, dir, func(name string, data []byte) error {
		side[name] = string(data)
		return nil
	})
	if err != nil {
		t.Fatalf("RestoreInto: %v", err)
	}
	return side, ok
}

// readString reads path through fsys.
func readString(t *testing.T, fsys CacheFS, path string) string {
	t.Helper()
	data, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// assertNoTmp fails if any listed directory holds a *.tmp file.
func assertNoTmp(t *testing.T, fsys CacheFS, dirs ...string) {
	t.Helper()
	for _, dir := range dirs {
		entries, err := fsys.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				t.Errorf("stray temp file %s", filepath.Join(dir, e.Name()))
			}
		}
	}
}

func TestActionCacheLinkedRestoreSurvivesRewrite(t *testing.T) {
	cacheBackends(t, func(t *testing.T, fsys CacheFS, root string) {
		ws := fsys.(storage.Workspace)
		dir := filepath.Dir(root)
		c, err := NewActionCache(fsys, root, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		const recorded = "recorded product bytes"
		product := filepath.Join(dir, "a.v2")
		if err := ws.WriteFile(product, []byte(recorded), 0o644); err != nil {
			t.Fatal(err)
		}
		id := testID("linked")
		if err := c.Put(id, []Blob{{Name: "a.v2", Path: product}, {Name: "@side", Data: []byte("side")}}); err != nil {
			t.Fatal(err)
		}
		if err := ws.Remove(product); err != nil {
			t.Fatal(err)
		}
		if side, ok := restoreInto(t, c, id, dir); !ok || side["@side"] != "side" {
			t.Fatalf("linked restore: ok=%v side=%v", ok, side)
		}
		if got := readString(t, fsys, product); got != recorded {
			t.Fatalf("restored product %q", got)
		}
		// The restored product shares the blob's bytes.  Rewriting it
		// through either write path must bind a fresh file and leave the
		// blob as recorded, so the next restore brings the bytes back.
		rewrites := []struct {
			name string
			fn   func() error
		}{
			{"WriteFile", func() error { return ws.WriteFile(product, []byte("rewritten by WriteFile"), 0o644) }},
			{"Create", func() error {
				w, err := ws.Create(product)
				if err != nil {
					return err
				}
				if _, err := w.Write([]byte("rewritten by Create")); err != nil {
					return err
				}
				return w.Close()
			}},
		}
		for _, rw := range rewrites {
			if err := rw.fn(); err != nil {
				t.Fatalf("%s: %v", rw.name, err)
			}
			if got, ok := restoreAll(t, c, id); !ok || got["a.v2"] != recorded {
				t.Fatalf("after %s the blob holds %q (ok=%v)", rw.name, got["a.v2"], ok)
			}
			if _, ok := restoreInto(t, c, id, dir); !ok {
				t.Fatalf("after %s: restore missed", rw.name)
			}
			if got := readString(t, fsys, product); got != recorded {
				t.Fatalf("after %s the restore left %q", rw.name, got)
			}
		}
		assertNoTmp(t, fsys, dir, filepath.Join(root, "blobs"))
	})
}

func TestActionCacheRestoreOntoEditedLinkLeavesNoTmp(t *testing.T) {
	cacheBackends(t, func(t *testing.T, fsys CacheFS, root string) {
		ws := fsys.(storage.Workspace)
		dir := filepath.Dir(root)
		c, err := NewActionCache(fsys, root, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		product := filepath.Join(dir, "a.v2")
		if err := ws.WriteFile(product, []byte("aaaaaaaa"), 0o644); err != nil {
			t.Fatal(err)
		}
		id := testID("edited")
		if err := c.Put(id, []Blob{{Name: "a.v2", Path: product}}); err != nil {
			t.Fatal(err)
		}
		// Edit the product in place, behind the workspace's back: the blob
		// shares its bytes, so both change.
		switch ws.(type) {
		case storage.OS:
			f, err := os.OpenFile(product, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte("bbbbbbbb"), 0); err != nil {
				t.Fatal(err)
			}
			f.Close()
			// Move mtime explicitly so the edit shows in the stat
			// fingerprint even within one timestamp tick.
			later := time.Now().Add(time.Second)
			if err := os.Chtimes(product, later, later); err != nil {
				t.Fatal(err)
			}
		default:
			if err := ws.Append(product, []byte("b"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// The product now differs from its manifest sum, and so does the
		// blob: the restore must see the damage instead of linking the blob
		// back over itself.
		if _, ok := restoreInto(t, c, id, dir); ok {
			t.Fatal("restored a blob edited through its product")
		}
		if c.Len() != 0 {
			t.Fatalf("damaged entry not dropped, Len = %d", c.Len())
		}
		assertNoTmp(t, fsys, dir, filepath.Join(root, "blobs"))
	})
}

func TestActionCachePlaceOntoOwnLinkLeavesNoTmp(t *testing.T) {
	cacheBackends(t, func(t *testing.T, fsys CacheFS, root string) {
		dir := filepath.Dir(root)
		c, err := NewActionCache(fsys, root, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		blob := filepath.Join(root, "blobs", "b")
		product := filepath.Join(dir, "a.v2")
		if err := fsys.WriteFile(blob, []byte("blob bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := fsys.Link(blob, product); err != nil {
			t.Fatal(err)
		}
		// rename(2) between two names of one inode succeeds and does
		// nothing; the temp name must still go.
		if err := c.place(product, blob); err != nil {
			t.Fatal(err)
		}
		if got := readString(t, fsys, product); got != "blob bytes" {
			t.Fatalf("product holds %q", got)
		}
		assertNoTmp(t, fsys, dir)
	})
}

// refuseLinkFS is a CacheFS whose Link always fails with err.
type refuseLinkFS struct {
	CacheFS
	err func(oldpath, newpath string) error
}

func (f refuseLinkFS) Link(oldpath, newpath string) error { return f.err(oldpath, newpath) }

func TestActionCacheCopyFallback(t *testing.T) {
	refusals := map[string]func(oldpath, newpath string) error{
		"unsupported": func(string, string) error { return storage.ErrLinkUnsupported },
		"exdev": func(oldpath, newpath string) error {
			return &os.LinkError{Op: "link", Old: oldpath, New: newpath, Err: syscall.EXDEV}
		},
	}
	for name, refuse := range refusals {
		t.Run(name, func(t *testing.T) {
			cacheBackends(t, func(t *testing.T, base CacheFS, root string) {
				fsys := refuseLinkFS{CacheFS: base, err: refuse}
				dir := filepath.Dir(root)
				c, err := NewActionCache(fsys, root, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				// Three actions, two of them with the same output bytes.
				want := map[string]string{"a.v2": "first product", "b.v2": "second product", "c.v2": "first product"}
				names := []string{"a.v2", "b.v2", "c.v2"}
				for _, n := range names {
					p := filepath.Join(dir, n)
					if err := fsys.WriteFile(p, []byte(want[n]), 0o644); err != nil {
						t.Fatal(err)
					}
					if err := c.Put(testID(n), []Blob{{Name: n, Path: p}}); err != nil {
						t.Fatal(err)
					}
				}
				// The warm rerun: a reopened cache, one product missing, one
				// rewritten, one in place.
				if err := fsys.Remove(filepath.Join(dir, "a.v2")); err != nil {
					t.Fatal(err)
				}
				if err := fsys.WriteFile(filepath.Join(dir, "b.v2"), []byte("stale"), 0o644); err != nil {
					t.Fatal(err)
				}
				warm, err := NewActionCache(fsys, root, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range names {
					if _, ok := restoreInto(t, warm, testID(n), dir); !ok {
						t.Fatalf("%s missed", n)
					}
					if got := readString(t, fsys, filepath.Join(dir, n)); got != want[n] {
						t.Errorf("%s restored as %q, want %q", n, got, want[n])
					}
				}
				if hits, misses, _ := warm.Counts(); hits != 3 || misses != 0 {
					t.Fatalf("warm counts %d/%d, want 3 hits / 0 misses", hits, misses)
				}
				assertNoTmp(t, fsys, dir, filepath.Join(root, "blobs"))
			})
		})
	}
}

// staleSumFS is a CacheFS whose Sum reports a fixed sum for one path: the
// file changed after the caller hashed it.
type staleSumFS struct {
	CacheFS
	path string
	sum  [sha256.Size]byte
}

func (f staleSumFS) Sum(path string) ([sha256.Size]byte, int64, bool) {
	sum, size, ok := f.CacheFS.Sum(path)
	if path == f.path {
		sum = f.sum
	}
	return sum, size, ok
}

func TestActionCachePutSourceChangedStoresNothing(t *testing.T) {
	for _, link := range []string{"link", "copy"} {
		t.Run(link, func(t *testing.T) {
			cacheBackends(t, func(t *testing.T, base CacheFS, root string) {
				product := filepath.Join(filepath.Dir(root), "a.v2")
				if err := base.WriteFile(product, []byte("new bytes"), 0o644); err != nil {
					t.Fatal(err)
				}
				var fsys CacheFS = staleSumFS{CacheFS: base, path: product, sum: sha256.Sum256([]byte("old bytes"))}
				if link == "copy" {
					fsys = refuseLinkFS{CacheFS: fsys, err: func(string, string) error { return storage.ErrLinkUnsupported }}
				}
				c, err := NewActionCache(fsys, root, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				id := testID("changed")
				if err := c.Put(id, []Blob{{Name: "@side", Data: []byte("side")}, {Name: "a.v2", Path: product}}); err == nil {
					t.Fatal("Put of a changed source succeeded")
				}
				if c.Len() != 0 || c.Bytes() != 0 {
					t.Fatalf("failed Put left Len=%d Bytes=%d", c.Len(), c.Bytes())
				}
				for _, sub := range []string{"actions", "blobs"} {
					if entries, err := fsys.List(filepath.Join(root, sub)); err != nil || len(entries) != 0 {
						t.Fatalf("failed Put left %s: %v %v", sub, entries, err)
					}
				}
				if _, ok := restoreInto(t, c, id, filepath.Dir(root)); ok {
					t.Fatal("restored an action whose Put failed")
				}
			})
		})
	}
}

func TestActionCacheRestoreLeavesMatchingProductAlone(t *testing.T) {
	root := filepath.Join(t.TempDir(), ".smcache")
	dir := filepath.Dir(root)
	c, err := NewActionCache(storage.OS{}, root, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	id := testID("in place")
	if err := c.Put(id, []Blob{{Name: "a.v2", Data: []byte("product bytes")}}); err != nil {
		t.Fatal(err)
	}
	product := filepath.Join(dir, "a.v2")
	if err := (storage.OS{}).WriteFile(product, []byte("product bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(product)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := restoreInto(t, c, id, dir); !ok {
		t.Fatal("restore missed")
	}
	after, err := os.Stat(product)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("a product already holding the recorded bytes was replaced")
	}
}
