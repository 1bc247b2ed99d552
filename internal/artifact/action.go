package artifact

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"accelproc/internal/faults"
	"accelproc/internal/obs"
)

// This file is the action-cache layer: where the memo layer (store.go)
// remembers decoded values for the lifetime of one process, the action cache
// remembers the *outputs* of whole stage executions across processes and
// across storage backends.  The design follows the build-action scheme of
// cmd/go: an action is identified by a digest of everything that determines
// its outputs — a stable scheme string, the stage identity, the content
// hashes of its input artifacts, and the option parameters the stage's
// kernels read — and its output files are stored content-addressed under a
// cache root.  Rerunning a stage whose digest is already present restores
// the recorded bytes instead of recomputing them.
//
// Work-directory products move in and out of the cache by hardlink, not by
// copy: Put links each product to its content address and RestoreInto links
// each blob back, leaving alone a product that already holds the recorded
// bytes.  This is sound because the workspace never rewrites a file in
// place (see storage.Workspace): rewriting a product binds a fresh inode and
// leaves the blob it shared untouched.  Where the filesystem refuses a link
// (another device, an in-memory workspace over disk files, the chaos
// decorator) the bytes are copied instead.

// ActionID is the digest identifying one cached action.
type ActionID [sha256.Size]byte

// String returns the lowercase hex form, used as the manifest file name.
func (id ActionID) String() string { return hex.EncodeToString(id[:]) }

func parseActionID(s string) (ActionID, bool) {
	var id ActionID
	if len(s) != 2*sha256.Size {
		return id, false
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, false
	}
	copy(id[:], b)
	return id, true
}

// Hasher accumulates the fields of an action key into a digest.  Every field
// is length-prefixed before hashing, so ("ab","c") and ("a","bc") produce
// different digests — no field concatenation can alias another key.
type Hasher struct {
	h hash.Hash
}

// NewHasher starts a digest under the given scheme string.  The scheme names
// the key layout version: bump it whenever the set or order of hashed fields
// changes, so stale cache entries from older binaries can never alias.
func NewHasher(scheme string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.String(scheme)
	return h
}

// Bytes folds a raw byte field into the digest.
func (h *Hasher) Bytes(b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h.h.Write(n[:])
	h.h.Write(b)
}

// String folds a string field into the digest.
func (h *Hasher) String(s string) { h.Bytes([]byte(s)) }

// Int folds an integer field into the digest.
func (h *Hasher) Int(v int64) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(v))
	h.Bytes(n[:])
}

// Float folds a float field into the digest, via the shortest exact decimal
// form so the key is bit-pattern stable.
func (h *Hasher) Float(v float64) { h.String(strconv.FormatFloat(v, 'e', -1, 64)) }

// Sum returns the accumulated digest.
func (h *Hasher) Sum() ActionID {
	var id ActionID
	h.h.Sum(id[:0])
	return id
}

// CacheFS is the filesystem surface the action cache persists through: the
// subset of storage.Workspace it needs, declared locally so this package
// stays importable from internal/storage-free contexts.  storage.Workspace
// satisfies it structurally.  Link may refuse with any error; the cache
// then copies bytes instead.  Sum is the content SHA-256 and size of a
// regular file.
type CacheFS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadFile(path string) ([]byte, error)
	WriteFile(path string, data []byte, perm os.FileMode) error
	Remove(path string) error
	Rename(oldpath, newpath string) error
	Link(oldpath, newpath string) error
	Stat(path string) (fs.FileInfo, error)
	List(dir string) ([]fs.DirEntry, error)
	Sum(path string) (sum [sha256.Size]byte, size int64, ok bool)
}

// Blob is one output of an action: its name relative to the work directory
// (or a "@"-prefixed side-channel name the caller interprets), and either
// its exact bytes in Data or, when Path is set, the file holding them.  Put
// hardlinks a Path blob into the cache instead of copying its bytes.
type Blob struct {
	Name string
	Data []byte
	Path string
}

// manifestOut is one output line of a persisted action manifest.
type manifestOut struct {
	name string
	size int64
	sum  [sha256.Size]byte
}

// actionEntry is one resident cache entry.
type actionEntry struct {
	id   ActionID
	outs []manifestOut
}

// blobInfo tracks one content-addressed blob's size and how many manifests
// reference it, so shared outputs are stored and counted once.
type blobInfo struct {
	size int64
	refs int
}

// actionManifestMagic heads every manifest file; a manifest without it (or
// with any malformed line) is treated as corrupt and dropped, never as an
// error — a damaged cache degrades to recomputation.
const actionManifestMagic = "SMCACHE ACTION v1"

// ActionCache is the persistent, size-bounded, content-addressed action
// store.  Layout under root:
//
//	root/actions/<hex action id>   one text manifest per cached action
//	root/blobs/<hex sha256>        output bytes, content-addressed
//
// Entries are evicted least-recently-used when the summed blob bytes exceed
// the configured bound.  Every read path treats damage — missing blob,
// truncated blob, checksum mismatch under verify, unparseable manifest — as
// a miss that drops the entry, never as an error.  All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type ActionCache struct {
	fsys   CacheFS
	root   string
	max    int64 // blob-byte bound; <= 0 means unbounded
	verify bool  // re-hash blob bytes on every restore

	mu      sync.Mutex
	entries map[ActionID]*list.Element
	lru     *list.List // of *actionEntry; front = least recently used
	blobs   map[[sha256.Size]byte]*blobInfo
	bytes   int64

	nHits, nMisses, nEvicts int64
	nSwept                  int64 // orphan blobs removed by load's bounded sweep

	// Nil-safe observability handles, attached via SetCounters.
	hits, misses, evicts *obs.Counter
	bytesGauge           *obs.Gauge
}

// NewActionCache opens (or creates) the action cache rooted at root on fsys.
// maxBytes bounds the summed blob bytes (<= 0 is unbounded); verify re-hashes
// every restored blob against its recorded checksum.  Existing entries are
// indexed with their LRU order seeded from manifest modification times;
// corrupt manifests and orphaned blobs are removed.
func NewActionCache(fsys CacheFS, root string, maxBytes int64, verify bool) (*ActionCache, error) {
	c := &ActionCache{
		fsys:    fsys,
		root:    root,
		max:     maxBytes,
		verify:  verify,
		entries: make(map[ActionID]*list.Element),
		lru:     list.New(),
		blobs:   make(map[[sha256.Size]byte]*blobInfo),
	}
	if err := fsys.MkdirAll(c.actionsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("artifact: action cache %s: %w", root, err)
	}
	if err := fsys.MkdirAll(c.blobsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("artifact: action cache %s: %w", root, err)
	}
	if err := c.load(); err != nil {
		return nil, fmt.Errorf("artifact: action cache %s: %w", root, err)
	}
	return c, nil
}

func (c *ActionCache) actionsDir() string { return filepath.Join(c.root, "actions") }
func (c *ActionCache) blobsDir() string   { return filepath.Join(c.root, "blobs") }

func (c *ActionCache) blobPath(sum [sha256.Size]byte) string {
	return filepath.Join(c.blobsDir(), hex.EncodeToString(sum[:]))
}

func (c *ActionCache) manifestPath(id ActionID) string {
	return filepath.Join(c.actionsDir(), id.String())
}

// load indexes the persisted cache: parse every manifest (removing corrupt
// ones), seed the LRU from manifest mtimes, account blob bytes once per
// unique checksum, drop orphaned blobs, and enforce the size bound.
func (c *ActionCache) load() error {
	names, err := c.fsys.List(c.actionsDir())
	if err != nil {
		return err
	}
	type loaded struct {
		e  *actionEntry
		at time.Time
	}
	var found []loaded
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		id, ok := parseActionID(de.Name())
		if !ok {
			// Stray file (an interrupted temp write, say): not ours to keep.
			_ = c.fsys.Remove(filepath.Join(c.actionsDir(), de.Name()))
			continue
		}
		path := c.manifestPath(id)
		data, err := c.fsys.ReadFile(path)
		if err != nil {
			continue
		}
		outs, ok := parseManifest(data)
		if !ok {
			_ = c.fsys.Remove(path)
			continue
		}
		at := time.Time{}
		if info, err := c.fsys.Stat(path); err == nil {
			at = info.ModTime()
		}
		found = append(found, loaded{e: &actionEntry{id: id, outs: outs}, at: at})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].at.Before(found[j].at) })
	for _, l := range found {
		c.entries[l.e.id] = c.lru.PushBack(l.e)
		for _, out := range l.e.outs {
			c.refBlob(out.sum, out.size)
		}
	}
	// Remove blobs no surviving manifest references.  The sweep is bounded
	// per open so a massively damaged cache cannot stall startup; whatever
	// remains is picked up by the next open or by an explicit Scrub.
	if blobNames, err := c.fsys.List(c.blobsDir()); err == nil {
		for _, de := range blobNames {
			if de.IsDir() {
				continue
			}
			sum, ok := parseActionID(de.Name())
			if ok {
				if _, live := c.blobs[[sha256.Size]byte(sum)]; live {
					continue
				}
			}
			if c.nSwept >= autoSweepLimit {
				break
			}
			if c.fsys.Remove(filepath.Join(c.blobsDir(), de.Name())) == nil {
				c.nSwept++
			}
		}
	}
	c.evictLocked()
	c.bytesGauge.Set(float64(c.bytes))
	return nil
}

// autoSweepLimit bounds how many orphan blobs one load may delete.
const autoSweepLimit = 512

// SweptOrphans reports how many orphan blobs the opening sweep removed.
func (c *ActionCache) SweptOrphans() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nSwept
}

// refBlob adds one manifest reference to a blob, charging its bytes on the
// first reference.  Callers hold c.mu (or run during single-threaded load).
func (c *ActionCache) refBlob(sum [sha256.Size]byte, size int64) {
	if b, ok := c.blobs[sum]; ok {
		b.refs++
		return
	}
	c.blobs[sum] = &blobInfo{size: size, refs: 1}
	c.bytes += size
}

// unrefBlob drops one reference, deleting the blob file and refunding its
// bytes when the last reference goes.  Callers hold c.mu.
func (c *ActionCache) unrefBlob(sum [sha256.Size]byte) {
	b, ok := c.blobs[sum]
	if !ok {
		return
	}
	b.refs--
	if b.refs > 0 {
		return
	}
	delete(c.blobs, sum)
	c.bytes -= b.size
	_ = c.fsys.Remove(c.blobPath(sum))
}

func formatManifest(outs []manifestOut) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\nNOUTPUTS: %d\n", actionManifestMagic, len(outs))
	for _, out := range outs {
		fmt.Fprintf(&sb, "%d %s %s\n", out.size, hex.EncodeToString(out.sum[:]), out.name)
	}
	return []byte(sb.String())
}

func parseManifest(data []byte) ([]manifestOut, bool) {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 || lines[0] != actionManifestMagic {
		return nil, false
	}
	nStr, ok := strings.CutPrefix(lines[1], "NOUTPUTS: ")
	if !ok {
		return nil, false
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n < 0 || len(lines) != 2+n {
		return nil, false
	}
	outs := make([]manifestOut, n)
	for i := 0; i < n; i++ {
		fields := strings.SplitN(lines[2+i], " ", 3)
		if len(fields) != 3 || fields[2] == "" {
			return nil, false
		}
		size, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil || size < 0 {
			return nil, false
		}
		sum, ok := parseActionID(fields[1])
		if !ok {
			return nil, false
		}
		outs[i] = manifestOut{name: fields[2], size: size, sum: [sha256.Size]byte(sum)}
	}
	return outs, true
}

// SetCounters attaches the cache metrics: restore hits, misses (including
// corruption drops), size-bound evictions, and the resident blob bytes.
func (c *ActionCache) SetCounters(hits, misses, evicts *obs.Counter, bytes *obs.Gauge) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.hits, c.misses, c.evicts, c.bytesGauge = hits, misses, evicts, bytes
	bytes.Set(float64(c.bytes))
	c.mu.Unlock()
}

func (c *ActionCache) hit()  { c.nHits++; c.hits.Add(1) }
func (c *ActionCache) miss() { c.nMisses++; c.misses.Add(1) }

// open is the cache's one validating read path.  It looks id up, freshens
// its LRU position, and checks every blob the entry names: present at the
// recorded size (one Stat each) and, under verify, hashing to the recorded
// sum.  A damaged entry is dropped and counted as a miss, so cache
// corruption can only cost recomputation.  The caller counts the hit once
// it has delivered the outputs.
func (c *ActionCache) open(id ActionID) ([]manifestOut, bool) {
	c.mu.Lock()
	el, ok := c.entries[id]
	if !ok {
		c.miss()
		c.mu.Unlock()
		return nil, false
	}
	e := el.Value.(*actionEntry)
	c.lru.MoveToBack(el)
	c.mu.Unlock()
	for _, out := range e.outs {
		if !c.blobSound(out) {
			c.damaged(id)
			return nil, false
		}
	}
	return e.outs, true
}

// damaged drops entry id and counts its lookup as a miss.
func (c *ActionCache) damaged(id ActionID) {
	c.dropEntry(id)
	c.mu.Lock()
	c.miss()
	c.bytesGauge.Set(float64(c.bytes))
	c.mu.Unlock()
}

// blobSound reports whether out's blob is present at its recorded size and,
// under verify, holds bytes hashing to its recorded sum.
func (c *ActionCache) blobSound(out manifestOut) bool {
	path := c.blobPath(out.sum)
	if !c.verify {
		info, err := c.fsys.Stat(path)
		return err == nil && info.Size() == out.size
	}
	data, err := c.fsys.ReadFile(path)
	return err == nil && int64(len(data)) == out.size && sha256.Sum256(data) == out.sum
}

// countHit records one delivered restore.
func (c *ActionCache) countHit() {
	c.mu.Lock()
	c.hit()
	c.mu.Unlock()
}

// Restore looks up id and, on a hit, feeds every recorded output's bytes
// through write in manifest order.  It returns (false, nil) on a miss; a
// damaged entry — blob missing, size short of the manifest (a truncated
// blob), or, under verify, a checksum mismatch — is dropped and reported as
// a miss.  Every blob is read before write sees any, and an error from
// reading or from write is returned as-is: by then the entry itself proved
// sound.
func (c *ActionCache) Restore(id ActionID, write func(name string, data []byte) error) (bool, error) {
	if c == nil {
		return false, nil
	}
	outs, ok := c.open(id)
	if !ok {
		return false, nil
	}
	bufs := make([][]byte, len(outs))
	for i, out := range outs {
		data, err := c.fsys.ReadFile(c.blobPath(out.sum))
		if err != nil {
			return false, err
		}
		bufs[i] = data
	}
	for i, out := range outs {
		if err := write(out.name, bufs[i]); err != nil {
			return false, err
		}
	}
	c.countHit()
	return true, nil
}

// RestoreInto restores action id without moving bytes: each file output is
// placed at its name under dir, and each "@"-prefixed side-channel output is
// read and handed to side.  A product that already holds the recorded bytes
// is left alone.  Any other is replaced by a hardlink of its blob, made
// under a sibling temp name and renamed into place so the product path only
// ever holds a complete file; a refused link falls back to a byte copy.
// Hits, misses and damaged entries behave as in Restore.  An error placing
// a file or from side is returned as-is, and may leave some outputs placed:
// the caller recomputes them.
func (c *ActionCache) RestoreInto(id ActionID, dir string, side func(name string, data []byte) error) (bool, error) {
	if c == nil {
		return false, nil
	}
	outs, ok := c.open(id)
	if !ok {
		return false, nil
	}
	// Plan before touching dir.  A product that exists but differs from its
	// blob may be that blob, edited in place through the inode they share,
	// so the blob must still hold its recorded bytes before it is linked
	// anywhere; if not, the entry is damaged.
	place := make([]bool, len(outs))
	for i, out := range outs {
		if strings.HasPrefix(out.name, "@") {
			continue
		}
		have, _, exists := c.fsys.Sum(filepath.Join(dir, out.name))
		if exists && have == out.sum {
			continue
		}
		if exists {
			if blob, _, ok := c.fsys.Sum(c.blobPath(out.sum)); !ok || blob != out.sum {
				c.damaged(id)
				return false, nil
			}
		}
		place[i] = true
	}
	for i, out := range outs {
		blob := c.blobPath(out.sum)
		switch {
		case place[i]:
			if err := c.place(filepath.Join(dir, out.name), blob); err != nil {
				return false, err
			}
		case strings.HasPrefix(out.name, "@"):
			data, err := c.fsys.ReadFile(blob)
			if err != nil {
				return false, err
			}
			if err := side(out.name, data); err != nil {
				return false, err
			}
		}
	}
	c.countHit()
	return true, nil
}

// place puts a hardlink of blob at dst via a sibling temp name, or a copy
// of its bytes when the link is refused.
func (c *ActionCache) place(dst, blob string) error {
	tmp := dst + ".tmp"
	// The temp name never outlives placement: a temp file left by an
	// interrupted run makes the link refuse, and rename(2) between two
	// names of one inode succeeds without removing the source name.
	defer c.fsys.Remove(tmp)
	if err := c.fsys.Link(blob, tmp); err == nil {
		return c.fsys.Rename(tmp, dst)
	}
	data, err := c.fsys.ReadFile(blob)
	if err != nil {
		return err
	}
	return c.fsys.WriteFile(dst, data, 0o644)
}

// Put records outs as the outputs of action id: missing blobs are stored
// content-addressed (Path blobs by hardlink, see storeBlob), the manifest
// lands last (so a crash mid-Put leaves orphan blobs the next load sweeps,
// never a manifest naming absent blobs), and the LRU bound is enforced.
// Storing an already-present id only freshens its LRU position.
// Persistence failures, and a Path blob whose file changed while it was
// being stored, leave the cache consistent and unchanged and are returned
// for the caller to ignore or log — a failed Put costs a future
// recomputation, nothing else.
func (c *ActionCache) Put(id ActionID, outs []Blob) error {
	if c == nil {
		return nil
	}
	// Content sums are taken before the lock: a Path blob's comes from the
	// workspace, which serves a file this process wrote from its stat memo.
	e := &actionEntry{id: id, outs: make([]manifestOut, len(outs))}
	for i, b := range outs {
		out := &e.outs[i]
		out.name = b.Name
		if b.Path == "" {
			out.sum, out.size = sha256.Sum256(b.Data), int64(len(b.Data))
			continue
		}
		var ok bool
		if out.sum, out.size, ok = c.fsys.Sum(b.Path); !ok {
			return fmt.Errorf("artifact: put %s: %s is not a regular file", b.Name, b.Path)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[id]; ok {
		c.lru.MoveToBack(el)
		return nil
	}
	written := make(map[[sha256.Size]byte]bool, len(outs))
	undo := func() {
		for w := range written {
			_ = c.fsys.Remove(c.blobPath(w))
		}
	}
	for i, b := range outs {
		sum := e.outs[i].sum
		if _, have := c.blobs[sum]; have || written[sum] {
			continue
		}
		if err := c.storeBlob(b, e.outs[i]); err != nil {
			undo()
			return err
		}
		written[sum] = true
	}
	// The crash points bracket the cache's durability boundary: dying before
	// the manifest write leaves only orphan blobs (swept at next open), dying
	// after leaves a complete, restorable entry.  Both are exercised by the
	// crash matrix in internal/pipeline.
	faults.Crash(faults.CrashManifestPut)
	if err := c.fsys.WriteFile(c.manifestPath(id), formatManifest(e.outs), 0o644); err != nil {
		undo()
		return err
	}
	faults.Crash(faults.CrashManifestPutDone)
	for _, out := range e.outs {
		c.refBlob(out.sum, out.size)
	}
	c.entries[id] = c.lru.PushBack(e)
	c.evictLocked()
	c.bytesGauge.Set(float64(c.bytes))
	return nil
}

// storeBlob lands one output at its content address.  A Data blob is
// written.  A Path blob is hardlinked, then checked: if the linked file no
// longer hashes to the sum Put recorded (the source changed between Sum and
// Link), the link is removed and Put fails rather than file different bytes
// under that sum.  A refused link falls back to copying the bytes, which
// are checked the same way.
func (c *ActionCache) storeBlob(b Blob, out manifestOut) error {
	dst := c.blobPath(out.sum)
	if b.Path == "" {
		return c.fsys.WriteFile(dst, b.Data, 0o644)
	}
	if err := c.fsys.Link(b.Path, dst); err == nil {
		if sum, _, ok := c.fsys.Sum(dst); ok && sum == out.sum {
			return nil
		}
		_ = c.fsys.Remove(dst)
		return errChanged(b)
	}
	data, err := c.fsys.ReadFile(b.Path)
	if err != nil {
		return err
	}
	if sha256.Sum256(data) != out.sum {
		return errChanged(b)
	}
	return c.fsys.WriteFile(dst, data, 0o644)
}

func errChanged(b Blob) error {
	return fmt.Errorf("artifact: put %s: %s changed while it was stored", b.Name, b.Path)
}

// evictLocked removes least-recently-used entries until the blob bytes fit
// the bound.  Callers hold c.mu.
func (c *ActionCache) evictLocked() {
	if c.max <= 0 {
		return
	}
	for c.bytes > c.max && c.lru.Len() > 0 {
		el := c.lru.Front()
		c.removeLocked(el.Value.(*actionEntry))
		c.nEvicts++
		c.evicts.Add(1)
	}
}

// removeLocked deletes one entry's manifest, dereferences its blobs, and
// forgets it.  Callers hold c.mu.
func (c *ActionCache) removeLocked(e *actionEntry) {
	el, ok := c.entries[e.id]
	if !ok {
		return
	}
	c.lru.Remove(el)
	delete(c.entries, e.id)
	_ = c.fsys.Remove(c.manifestPath(e.id))
	for _, out := range e.outs {
		c.unrefBlob(out.sum)
	}
}

// dropEntry removes a damaged entry (not counted as an eviction).
func (c *ActionCache) dropEntry(id ActionID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[id]; ok {
		c.removeLocked(el.Value.(*actionEntry))
	}
}

// Counts reports the lifetime hit, miss, and eviction totals.
func (c *ActionCache) Counts() (hits, misses, evictions int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nHits, c.nMisses, c.nEvicts
}

// Bytes reports the summed size of resident blobs.
func (c *ActionCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len reports the number of cached actions.
func (c *ActionCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
