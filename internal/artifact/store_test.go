package artifact

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"accelproc/internal/obs"
)

func writeTemp(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPutGetRoundTrip(t *testing.T) {
	s := NewMemo(nil)
	p := writeTemp(t, t.TempDir(), "a.v2", "payload-a")
	s.Put(p, []float64{1, 2, 3})
	v, ok := Cached[[]float64](s, p)
	if !ok {
		t.Fatal("expected cache hit")
	}
	if len(v) != 3 || v[2] != 3 {
		t.Fatalf("wrong value: %v", v)
	}
}

func TestGetMissesUnknownPath(t *testing.T) {
	s := NewMemo(nil)
	if _, ok := s.Get("/no/such/path"); ok {
		t.Fatal("hit on never-stored path")
	}
}

// The core coherence contract: a file mutated on disk behind the store must
// not be served from the stale entry.
func TestMutationBehindStoreInvalidates(t *testing.T) {
	s := NewMemo(nil)
	dir := t.TempDir()
	p := writeTemp(t, dir, "a.v2", "original content")
	s.Put(p, "decoded-original")

	if _, ok := s.Get(p); !ok {
		t.Fatal("expected initial hit")
	}
	// Mutate with different length: the size check alone must catch it.
	if err := os.WriteFile(p, []byte("mutated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(p); ok {
		t.Fatal("stale entry served after size change")
	}
	if s.Len() != 0 {
		t.Fatalf("stale entry not dropped, len=%d", s.Len())
	}
}

func TestSameSizeMutationInvalidatesViaMtime(t *testing.T) {
	s := NewMemo(nil)
	dir := t.TempDir()
	p := writeTemp(t, dir, "a.v2", "12345678")
	s.Put(p, "decoded")
	// Same length, different content; force a clearly different mtime so
	// the test does not depend on filesystem timestamp granularity.
	if err := os.WriteFile(p, []byte("87654321"), 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(p, past, past); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(p); ok {
		t.Fatal("stale entry served after same-size mutation")
	}
}

// The regression the content-hash generation exists for: two same-size
// writes landing within one filesystem timestamp tick used to alias under
// the {size, mtime} key and serve the stale decode.  With the content hash
// folded into the generation the mtime is irrelevant — even a forced
// identical timestamp must miss.
func TestSameSizeSameMtimeMutationInvalidates(t *testing.T) {
	s := NewMemo(nil)
	dir := t.TempDir()
	p := writeTemp(t, dir, "a.v2", "12345678")
	info, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(p, "decoded")
	if err := os.WriteFile(p, []byte("87654321"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Pin the rewritten file to the original timestamp: the worst case a
	// sub-tick double write can produce.
	if err := os.Chtimes(p, info.ModTime(), info.ModTime()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(p); ok {
		t.Fatal("stale entry served after same-size same-mtime mutation")
	}
}

func TestRemovedFileInvalidates(t *testing.T) {
	s := NewMemo(nil)
	p := writeTemp(t, t.TempDir(), "a.v2", "x")
	s.Put(p, "v")
	if err := os.Remove(p); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(p); ok {
		t.Fatal("entry served for removed file")
	}
}

func TestRenameFollowsFile(t *testing.T) {
	s := NewMemo(nil)
	dir := t.TempDir()
	p := writeTemp(t, dir, "a.v2", "content")
	s.Put(p, "decoded")
	q := filepath.Join(dir, "b.v2")
	if err := os.Rename(p, q); err != nil {
		t.Fatal(err)
	}
	s.Rename(p, q)
	if _, ok := s.Get(q); !ok {
		t.Fatal("entry did not follow rename")
	}
	if _, ok := s.Get(p); ok {
		t.Fatal("entry still live under old path")
	}
}

func TestRenameWithoutEntryDropsStaleDestination(t *testing.T) {
	s := NewMemo(nil)
	dir := t.TempDir()
	dst := writeTemp(t, dir, "dst.v2", "old destination")
	s.Put(dst, "stale")
	src := writeTemp(t, dir, "src.v2", "new destination")
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	s.Rename(src, dst)
	if _, ok := s.Get(dst); ok {
		t.Fatal("stale destination entry survived an uncached rename over it")
	}
}

func TestCloneFollowsHardlink(t *testing.T) {
	s := NewMemo(nil)
	dir := t.TempDir()
	p := writeTemp(t, dir, "a.v2", "content")
	s.Put(p, "decoded")
	q := filepath.Join(dir, "link.v2")
	if err := os.Link(p, q); err != nil {
		t.Skipf("hardlinks unavailable: %v", err)
	}
	s.Clone(p, q)
	if v, ok := s.Get(q); !ok || v != "decoded" {
		t.Fatalf("linked entry: v=%v ok=%v", v, ok)
	}
	if _, ok := s.Get(p); !ok {
		t.Fatal("source entry lost by Clone")
	}
}

func TestInvalidateDir(t *testing.T) {
	s := NewMemo(nil)
	dir := t.TempDir()
	scratch := filepath.Join(dir, "tmp_def_00_SS01")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	in := writeTemp(t, scratch, "a.v2", "in scratch")
	out := writeTemp(t, dir, "b.v2", "outside")
	// A sibling whose name shares the scratch dir as a string prefix must
	// survive: only path components count.
	sibling := writeTemp(t, dir, "tmp_def_00_SS011.v2", "prefix sibling")
	s.Put(in, 1)
	s.Put(out, 2)
	s.Put(sibling, 3)
	s.InvalidateDir(scratch)
	if _, ok := s.Get(in); ok {
		t.Fatal("scratch entry survived InvalidateDir")
	}
	if _, ok := s.Get(out); !ok {
		t.Fatal("outside entry dropped by InvalidateDir")
	}
	if _, ok := s.Get(sibling); !ok {
		t.Fatal("string-prefix sibling dropped by InvalidateDir")
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	s.Put("/x", 1)
	s.Invalidate("/x")
	s.InvalidateDir("/x")
	s.Rename("/x", "/y")
	s.Clone("/x", "/y")
	s.SetCounters(nil, nil, nil)
	if _, ok := s.Get("/x"); ok {
		t.Fatal("nil store produced a hit")
	}
	if _, ok := Cached[int](s, "/x"); ok {
		t.Fatal("nil store produced a typed hit")
	}
	if s.Len() != 0 {
		t.Fatal("nil store has entries")
	}
}

func TestCachedTypeMismatchIsMiss(t *testing.T) {
	s := NewMemo(nil)
	p := writeTemp(t, t.TempDir(), "a.v2", "x")
	s.Put(p, "a string")
	if _, ok := Cached[int](s, p); ok {
		t.Fatal("type-mismatched entry served")
	}
}

func TestCounters(t *testing.T) {
	s := NewMemo(nil)
	o := obs.New()
	hits := o.Counter("cache_hits_total")
	misses := o.Counter("cache_misses_total")
	saved := o.Counter("cache_bytes_saved_total")
	s.SetCounters(hits, misses, saved)
	p := writeTemp(t, t.TempDir(), "a.v2", "eight by") // 8 bytes
	s.Get(p)                                           // miss: never stored
	s.Put(p, "v")
	s.Get(p) // hit
	s.Get(p) // hit
	if got := hits.Value(); got != 2 {
		t.Errorf("hits = %v, want 2", got)
	}
	if got := misses.Value(); got != 1 {
		t.Errorf("misses = %v, want 1", got)
	}
	if got := saved.Value(); got != 16 {
		t.Errorf("bytes saved = %v, want 16", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewMemo(nil)
	dir := t.TempDir()
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = writeTemp(t, dir, filepath.Base(dir)+string(rune('a'+i)), "content")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := paths[(w+i)%len(paths)]
				switch i % 4 {
				case 0:
					s.Put(p, i)
				case 1:
					s.Get(p)
				case 2:
					s.Invalidate(p)
				case 3:
					s.Rename(p, p)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPeakBytesTracksLiveEntries checks the byte accounting behind
// PeakBytes through every mutation: a Put replacing an entry counts its new
// size only, a rename moves the bytes, a clone adds a second name's, and
// invalidation frees them; the peak keeps the high-water mark.
func TestPeakBytesTracksLiveEntries(t *testing.T) {
	s := NewMemo(nil)
	dir := t.TempDir()
	a := writeTemp(t, dir, "a.v2", "1234")      // 4 bytes
	b := writeTemp(t, dir, "b.v2", "123456789") // 9 bytes
	live := func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.bytes
	}
	s.Put(a, 1)
	s.Put(a, 2) // replaces, not adds
	s.Put(b, 3)
	if got := live(); got != 13 {
		t.Fatalf("live bytes = %d, want 13", got)
	}
	c := filepath.Join(dir, "c.v2")
	if err := os.Rename(b, c); err != nil {
		t.Fatal(err)
	}
	s.Rename(b, c)
	if got := live(); got != 13 {
		t.Fatalf("live bytes after rename = %d, want 13", got)
	}
	s.Clone(a, filepath.Join(dir, "a-link.v2"))
	if got, peak := live(), s.PeakBytes(); got != 17 || peak != 17 {
		t.Fatalf("after clone: live %d peak %d, want 17 and 17", got, peak)
	}
	s.InvalidateDir(dir)
	if got, peak := live(), s.PeakBytes(); got != 0 || peak != 17 || s.Len() != 0 {
		t.Fatalf("after InvalidateDir: live %d peak %d len %d, want 0, 17, 0", got, peak, s.Len())
	}
	if (*Store)(nil).PeakBytes() != 0 {
		t.Fatal("nil store reports a footprint")
	}
}
