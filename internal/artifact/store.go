// Package artifact implements the pipeline's two caching layers.
//
// The memo layer (Store, this file) is a concurrency-safe, write-through
// store of decoded pipeline artifacts, alive for one process.  The
// processing chain exchanges every intermediate product through text files:
// a producer formats []float64 payloads with 17-digit precision and the
// consumer tokenizes and ParseFloats them right back.  The store layers
// memoization over that protocol without changing it: writers keep emitting
// byte-identical files, but the decoded in-memory value is retained, keyed
// by path and by the file's content generation (size + content hash as
// observed right after the write).  A reader that finds a live entry skips
// the tokenize+parse entirely; any path whose on-disk generation no longer
// matches — an external mutation, a fault-injected partial write, a retry
// overwrite — falls back to disk.
//
// Entries follow artifacts across rename boundaries (the temp-folder
// staging protocol moves files between the work directory and per-record
// scratch folders) and across hardlinks (Clone), because a rename or link
// preserves the content and therefore the generation.  A nil *Store is
// valid everywhere and caches nothing, which is how the cache-off ablation
// runs.
//
// The generation function is pluggable (NewMemo), so the store works
// against any storage backend: the default reads and hashes the real
// filesystem, while the in-memory workspace supplies its own monotonic
// write-sequence tokens — making the same store the fs backend's
// accelerator and the mem backend's native coherence check.
//
// The action-cache layer (ActionCache, action.go) persists whole stage
// executions content-addressed across process restarts; see that file.
package artifact

import (
	"crypto/sha256"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"accelproc/internal/obs"
)

// entry is one cached decoded value plus the content generation of the file
// it was decoded from (or encoded to).
type entry struct {
	value any
	gen   any
	size  int64
}

// Store maps file paths to decoded artifact values.  All methods are safe
// for concurrent use and are no-ops on a nil receiver.
type Store struct {
	mu      sync.RWMutex
	entries map[string]entry
	gen     func(path string) (gen any, size int64, ok bool)
	// bytes sums the live entries' file sizes; peak is its high-water mark.
	// Both are guarded by mu.
	bytes, peak int64

	// Lifetime hit/miss totals, always tracked (Counts), independent of the
	// optional observer counters below.
	nHits, nMisses atomic.Int64

	// Nil-safe observability counters (see obs.Counter); zero-valued until
	// SetCounters attaches real ones.
	hits   *obs.Counter
	misses *obs.Counter
	saved  *obs.Counter
}

// NewMemo returns an empty memo-layer store whose content generations come
// from gen; nil selects the filesystem default.  gen must return a
// comparable token identifying the path's current content, its size in
// bytes, and ok=false when the path does not currently hold a regular file.
func NewMemo(gen func(path string) (any, int64, bool)) *Store {
	if gen == nil {
		gen = statGeneration
	}
	return &Store{entries: make(map[string]entry), gen: gen}
}

// statGen is the filesystem generation token: size plus content hash.  The
// hash — not mtime — carries the coherence: filesystem mtime granularity can
// alias two same-size rewrites landing within one clock tick, which a
// size+mtime token would serve stale.
type statGen struct {
	size int64
	sum  [sha256.Size]byte
}

// statGeneration is the default generation function.
func statGeneration(path string) (any, int64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false
	}
	return statGen{size: int64(len(data)), sum: sha256.Sum256(data)}, int64(len(data)), true
}

// SetCounters attaches the cache metrics: hits, misses, and the on-disk
// bytes whose re-read+re-parse each hit avoided.
func (s *Store) SetCounters(hits, misses, saved *obs.Counter) {
	if s == nil {
		return
	}
	s.hits, s.misses, s.saved = hits, misses, saved
}

// Put records value as the decoded form of path's current content.  It must
// be called after the file has been successfully written (or read): the
// generation function captures the content token, and a failed lookup drops
// any existing entry instead of storing an unverifiable one.
func (s *Store) Put(path string, value any) {
	if s == nil {
		return
	}
	g, size, ok := s.gen(path)
	if !ok {
		s.Invalidate(path)
		return
	}
	s.mu.Lock()
	s.set(path, entry{value: value, gen: g, size: size})
	s.mu.Unlock()
}

// set stores e under path and del drops path's entry, keeping the byte
// accounting; the caller holds mu.
func (s *Store) set(path string, e entry) {
	s.del(path)
	s.entries[path] = e
	s.bytes += e.size
	s.peak = max(s.peak, s.bytes)
}

func (s *Store) del(path string) {
	if e, ok := s.entries[path]; ok {
		s.bytes -= e.size
		delete(s.entries, path)
	}
}

// Get returns the cached decoded value for path if the file's current
// generation still matches the one recorded at Put time.  A mismatch (or a
// vanished file) invalidates the entry and reports a miss, so a mutation
// behind the store's back is never served stale.
func (s *Store) Get(path string) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.RLock()
	e, ok := s.entries[path]
	s.mu.RUnlock()
	if !ok {
		s.nMisses.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	g, _, live := s.gen(path)
	if !live || g != e.gen {
		s.Invalidate(path)
		s.nMisses.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.nHits.Add(1)
	s.hits.Add(1)
	s.saved.Add(float64(e.size))
	return e.value, true
}

// Counts reports the lifetime hit and miss totals.
func (s *Store) Counts() (hits, misses int64) {
	if s == nil {
		return 0, 0
	}
	return s.nHits.Load(), s.nMisses.Load()
}

// Cached is the typed read path: the entry for path, if live and of type T.
func Cached[T any](s *Store, path string) (T, bool) {
	v, ok := s.Get(path)
	if ok {
		if t, tok := v.(T); tok {
			return t, true
		}
	}
	var zero T
	return zero, false
}

// Invalidate drops the entry for path, if any: called when a write failed
// (a fault-injected or partial write leaves unknown bytes on disk) and when
// a file is removed.
func (s *Store) Invalidate(path string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.del(path)
	s.mu.Unlock()
}

// InvalidateDir drops every entry at or under dir: called when a scratch
// folder is deleted or moved wholesale into quarantine.
func (s *Store) InvalidateDir(dir string) {
	if s == nil {
		return
	}
	prefix := strings.TrimSuffix(dir, string(os.PathSeparator)) + string(os.PathSeparator)
	s.mu.Lock()
	for p := range s.entries {
		if p == dir || strings.HasPrefix(p, prefix) {
			s.del(p)
		}
	}
	s.mu.Unlock()
}

// Rename moves the entry for oldpath to newpath, following a successful
// file rename.  A rename preserves the inode, so the recorded generation
// stays valid for the new path.
func (s *Store) Rename(oldpath, newpath string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if e, ok := s.entries[oldpath]; ok {
		s.del(oldpath)
		s.set(newpath, e)
	} else {
		s.del(newpath)
	}
	s.mu.Unlock()
}

// Clone copies src's entry to dst, following a successful hardlink: both
// names now share the inode, so they share the generation too.  Without a
// src entry any stale dst entry is dropped.
func (s *Store) Clone(src, dst string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if e, ok := s.entries[src]; ok {
		s.set(dst, e)
	} else {
		s.del(dst)
	}
	s.mu.Unlock()
}

// PeakBytes reports the high-water mark, over the store's lifetime, of the
// summed file sizes of its live entries: the memo's footprint in the bytes
// its entries decode, counting a hardlinked clone once per name.
func (s *Store) PeakBytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.peak
}

// Len reports the number of live entries (for tests and introspection).
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}
