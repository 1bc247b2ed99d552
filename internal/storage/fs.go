package storage

import (
	"crypto/sha256"
	"io"
	"io/fs"
	"os"
	"sync"
)

// OS is the filesystem-backed Workspace: every operation is the
// corresponding os call, with new files and folders created through its
// temp pool (see Temps).  The zero value is ready to use and has no pool,
// so its temps are siblings of their destinations; New gives a workspace
// the pool of its work directory.
type OS struct{ t *Temps }

func (o OS) MkdirAll(path string, perm os.FileMode) error { return o.t.mkdirAll(path, perm) }

// Rename carries the source's memoized content hash to the destination: the
// bytes are unchanged, only the stat fingerprint (ctime) moved.  Like Link,
// it carries only an entry that still matches the source's fingerprint.
func (OS) Rename(oldpath, newpath string) error {
	carry := validMemo(oldpath)
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	hashMemo.Delete(oldpath)
	if carry != nil {
		seedHashMemo(newpath, carry.sum)
	}
	return nil
}

func (OS) Remove(path string) error {
	hashMemo.Delete(path)
	return os.Remove(path)
}

func (OS) RemoveAll(path string) error           { return os.RemoveAll(path) }
func (OS) Stat(path string) (fs.FileInfo, error) { return os.Stat(path) }
func (OS) ReadFile(path string) ([]byte, error)  { return os.ReadFile(path) }

// WriteFile lands the bytes in a temp file that is renamed into place, so
// the destination only ever holds a complete file and an overwrite binds
// the path to a fresh inode — never truncating an inode the destination
// may share with a staged hardlink.
func (o OS) WriteFile(path string, data []byte, perm os.FileMode) error {
	if err := o.t.writeFile(path, data, perm); err != nil {
		return err
	}
	// The data is in hand: hash it now and seed the memo, so the first
	// generation probe of this product pays a stat instead of a re-read.
	seedHashMemo(path, sha256.Sum256(data))
	return nil
}

// Append opens path in append mode, writes data, and fsyncs before closing:
// the journal's guarantee that an acknowledged record survives kill -9.
// Append-mode files are not artifacts, so their hash memo entry (if any) is
// simply dropped.
func (OS) Append(path string, data []byte, perm os.FileMode) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, perm)
	if err != nil {
		return err
	}
	hashMemo.Delete(path)
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Link seeds the destination's memo from the source's — a hardlink shares
// the inode, so the content hash is identical — and re-seeds the source,
// whose fingerprint link(2) just invalidated by bumping the inode's ctime.
// The source's entry is carried only while it still matches the source's
// stat fingerprint, so a file changed since it was hashed is re-hashed on
// the next Sum of either name instead of inheriting a stale sum.
func (OS) Link(oldpath, newpath string) error {
	carry := validMemo(oldpath)
	if err := os.Link(oldpath, newpath); err != nil {
		return err
	}
	if carry != nil {
		seedHashMemo(oldpath, carry.sum)
		seedHashMemo(newpath, carry.sum)
	}
	return nil
}
func (OS) Open(path string) (io.ReadCloser, error) { return os.Open(path) }
func (OS) List(dir string) ([]fs.DirEntry, error)  { return os.ReadDir(dir) }

// Create streams to a temp file that Close renames into place, hashing the
// bytes as they pass so the destination's generation memo is seeded
// without a re-read — the incremental analogue of WriteFile.
func (o OS) Create(path string) (io.WriteCloser, error) {
	h := sha256.New()
	return o.t.create(path, h, func() {
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		seedHashMemo(path, sum)
	})
}

// diskGen is the filesystem content generation: size plus content hash.
// Hashing (rather than stat size + mtime) closes the mtime-granularity
// window where two same-size rewrites within one clock tick would alias to
// the same token and serve a stale decode.
type diskGen struct {
	size int64
	sum  [sha256.Size]byte
}

// statIdentity is the full stat fingerprint of one file version, the
// revalidation key of the hash memo below: size, mtime, and — on unix —
// inode number and ctime.  An in-place rewrite cannot leave ctime
// untouched (even Chtimes bumps it), and this backend's own WriteFile
// always binds a fresh inode, so a matching identity means the content
// hash on record is still the file's.
type statIdentity struct {
	size      int64
	mtimeNano int64
	ino       uint64
	ctimeNano int64
}

// hashMemo caches path -> (statIdentity, content hash) so unchanged files
// pay one os.Stat per generation probe instead of a full read + SHA-256.
// Entries are tiny (~100 B) and replaced in place on change; the map only
// grows with the number of distinct paths probed by this process.
var hashMemo sync.Map

type hashMemoEntry struct {
	ident statIdentity
	sum   [sha256.Size]byte
}

// statIdentityOf returns path's current stat fingerprint; ok is false when
// path is not a regular file.
func statIdentityOf(path string) (ident statIdentity, ok bool) {
	info, err := os.Stat(path)
	if err != nil || !info.Mode().IsRegular() {
		return ident, false
	}
	ident = statIdentity{size: info.Size(), mtimeNano: info.ModTime().UnixNano()}
	ident.ino, ident.ctimeNano = statExtra(info)
	return ident, true
}

// validMemo returns path's memo entry if it still matches path's stat
// fingerprint, nil otherwise.
func validMemo(path string) *hashMemoEntry {
	e, ok := hashMemo.Load(path)
	if !ok {
		return nil
	}
	he := e.(hashMemoEntry)
	if ident, ok := statIdentityOf(path); !ok || ident != he.ident {
		return nil
	}
	return &he
}

// seedHashMemo records a known content hash for path under its current stat
// fingerprint.  Callers pass a sum they know matches the bytes on disk (they
// just wrote, linked, or renamed them); the pipeline's file protocol writes
// each product path at most once per run, so no concurrent rewrite can slip
// different bytes under the fingerprint between that operation and the stat.
func seedHashMemo(path string, sum [sha256.Size]byte) {
	if ident, ok := statIdentityOf(path); ok {
		hashMemo.Store(path, hashMemoEntry{ident: ident, sum: sum})
	}
}

// diskSum returns the SHA-256 of path's content and its size, hashing the
// content only when the stat fingerprint changed since the last probe;
// shared with the mem backend's fallback for files that still live on real
// disk.  Stat'ing a directory succeeds but is not a regular file, so
// directories report ok=false.
func diskSum(path string) (sum [sha256.Size]byte, size int64, ok bool) {
	ident, ok := statIdentityOf(path)
	if !ok {
		return sum, 0, false
	}
	if e, ok := hashMemo.Load(path); ok {
		if he := e.(hashMemoEntry); he.ident == ident {
			return he.sum, ident.size, true
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return sum, 0, false
	}
	sum = sha256.Sum256(data)
	// Memoize under the pre-read fingerprint: a write racing the read makes
	// the next probe's fingerprint differ and re-hash, never serve this sum.
	hashMemo.Store(path, hashMemoEntry{ident: ident, sum: sum})
	return sum, int64(len(data)), true
}

// diskGeneration wraps diskSum's hash and size into a generation token.
func diskGeneration(path string) (any, int64, bool) {
	sum, size, ok := diskSum(path)
	if !ok {
		return nil, 0, false
	}
	return diskGen{size: size, sum: sum}, size, true
}

func (OS) Generation(path string) (any, int64, bool) { return diskGeneration(path) }

// Sum is served by the stat-keyed hash memo that WriteFile, Create, Link and
// Rename seed, so a product this process wrote costs one stat.
func (OS) Sum(path string) ([sha256.Size]byte, int64, bool) { return diskSum(path) }

// Materialize is a no-op: everything already lives on disk.
func (OS) Materialize(dir string) error { return nil }

// ResidentBytes is zero: the disk backend holds nothing in memory.
func (OS) ResidentBytes() (current, peak int64) { return 0, 0 }

func (o OS) Temps() *Temps { return o.t }

var _ Workspace = OS{}
