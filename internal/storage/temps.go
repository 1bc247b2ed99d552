package storage

import (
	"errors"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// RunDir is the work-directory subfolder holding a run's lifecycle state:
// the write-ahead run journal (see internal/pipeline) and, under tmp/, the
// workspace's temp pool.
const RunDir = ".smrun"

// Temps is a workspace's pool of writer-private temp directories under
// <work dir>/.smrun/tmp.  Every new file and folder the workspace creates
// is born inside one of them and renamed into place.  Creating an inode
// holds its parent directory's lock for hundreds of microseconds on ext4,
// so when parallel workers create their products beside each other in one
// work directory they queue on that lock; born in a directory no other
// writer is using, an entry takes the destination's lock only for the
// short rename.  A writer borrows a directory for the span of one creation
// (a WriteFile, a Create stream until Close or Abort, a new folder), so
// the pool grows to the number of concurrent writers.
//
// The pool folder carries the ext2/3/4 top-directory hint (markTopDir), so
// the allocator spreads the private directories, and the inodes created in
// them, over block groups instead of packing them into the work
// directory's.
//
// A nil *Temps, and every destination on another filesystem than the pool
// (the rename reports EXDEV), stages a file at its sibling <name>.tmp and
// makes a folder in place.  Either way the destination only ever holds a
// complete entry, and a temp is removed on every failure path.
//
// All methods are safe for concurrent use and nil-safe.
type Temps struct {
	root    string
	created atomic.Int64
	// foreign holds the destination directories that lie on another
	// filesystem than the pool, learned from the first EXDEV into each.
	foreign sync.Map

	mu    sync.Mutex
	idle  []string        // private directories free to lend
	owned map[string]bool // every private directory made since Close, by base name
}

// newTemps returns the pool of the work directory dir, or nil for "": no
// pool, so every temp is a sibling.  Nothing is created until the first
// write needs a directory.
func newTemps(dir string) *Temps {
	if dir == "" {
		return nil
	}
	return &Temps{root: filepath.Join(dir, RunDir, "tmp"), owned: make(map[string]bool)}
}

// Created counts the files and folders the workspace has created: each
// WriteFile, Create, materialized file and new folder that landed.  The
// pool's own directories are not counted (their number depends on
// timing), nor is RunDir, which the pool and the run journal share, nor a
// file Append creates (the run journal, its one user, starts it with
// WriteFile).
func (t *Temps) Created() int64 {
	if t == nil {
		return 0
	}
	return t.created.Load()
}

func (t *Temps) count() {
	if t != nil {
		t.created.Add(1)
	}
}

// Close removes the pool: every private directory it made, then the pool
// folder and RunDir if nothing else is left in them (a journal, or a
// concurrent run's pool, keeps them).  Writers must have finished.  The
// workspace stays usable; a later write starts a new pool.
func (t *Temps) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.owned) == 0 {
		return nil
	}
	var first error
	for name := range t.owned {
		if err := os.RemoveAll(filepath.Join(t.root, name)); err != nil && first == nil {
			first = err
		}
	}
	t.owned = make(map[string]bool)
	t.idle = nil
	if os.Remove(t.root) == nil {
		os.Remove(filepath.Dir(t.root))
	}
	return first
}

// Sweep removes the private directories other runs left in the pool
// folder, a crashed run's debris: with maxAge 0 all of them, otherwise
// only those whose mtime is older than maxAge, so a concurrent run's live
// directories survive.  It reports how many it removed and how many it
// could not.
func (t *Temps) Sweep(maxAge time.Duration) (swept, failed int) {
	if t == nil {
		return 0, 0
	}
	entries, err := os.ReadDir(t.root)
	if err != nil {
		return 0, 0
	}
	cutoff := time.Now().Add(-maxAge)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range entries {
		if t.owned[e.Name()] {
			continue
		}
		if maxAge > 0 {
			info, err := e.Info()
			if err != nil || info.ModTime().After(cutoff) {
				continue
			}
		}
		if err := os.RemoveAll(filepath.Join(t.root, e.Name())); err != nil {
			failed++
			continue
		}
		swept++
	}
	return swept, failed
}

// staged is one entry being created at a temp path: inside a borrowed
// private directory, or (dir "") at the destination's sibling.
type staged struct {
	t   *Temps
	dir string
	tmp string
}

// pooled reports whether a new entry at dst is born in the pool.
func (t *Temps) pooled(dst string) bool {
	if t == nil {
		return false
	}
	_, foreign := t.foreign.Load(filepath.Dir(dst))
	return !foreign
}

// stage picks dst's temp path, borrowing a private directory when dst is
// pooled.  A pool that cannot lend (its folder cannot be made) falls back
// to the sibling temp.
func (t *Temps) stage(dst string) staged {
	if t.pooled(dst) {
		if dir, err := t.borrow(); err == nil {
			return staged{t: t, dir: dir, tmp: filepath.Join(dir, filepath.Base(dst))}
		}
	}
	return staged{t: t, tmp: dst + ".tmp"}
}

// borrow lends an idle private directory, making a new one when all are
// in use.
func (t *Temps) borrow() (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.idle); n > 0 {
		dir := t.idle[n-1]
		t.idle = t.idle[:n-1]
		return dir, nil
	}
	if len(t.owned) == 0 {
		if err := os.MkdirAll(t.root, 0o755); err != nil {
			return "", err
		}
		markTopDir(t.root)
	}
	dir, err := os.MkdirTemp(t.root, "w")
	if err != nil {
		return "", err
	}
	t.owned[filepath.Base(dir)] = true
	return dir, nil
}

// release returns the borrowed private directory, if any, to the pool.
func (s staged) release() {
	if s.dir == "" {
		return
	}
	s.t.mu.Lock()
	if s.t.owned[filepath.Base(s.dir)] {
		s.t.idle = append(s.t.idle, s.dir)
	}
	s.t.mu.Unlock()
}

// discard removes the temp (a file, or a folder that is still empty) and
// releases its directory; a directory whose temp could not be removed is
// not lent again.
func (s staged) discard() {
	if err := os.Remove(s.tmp); err == nil || os.IsNotExist(err) {
		s.release()
	}
}

// commit renames the temp onto dst.  If dst lies on another filesystem,
// its directory is marked foreign and redo makes the entry again at the
// sibling temp (it may read the pooled temp, which is removed only after).
// On every failure the temp is removed.
func (s staged) commit(dst string, redo func(tmp string) error) error {
	err := os.Rename(s.tmp, dst)
	if err == nil {
		s.t.count()
		s.release()
		return nil
	}
	if s.dir != "" && errors.Is(err, syscall.EXDEV) {
		s.t.foreign.Store(filepath.Dir(dst), struct{}{})
		err = s.t.place(dst, redo)
	}
	s.discard()
	return err
}

// place creates the new file or folder dst: build makes it at a temp path,
// and one rename moves it into place.  It is the single
// create-temp-then-rename path of every backend.
func (t *Temps) place(dst string, build func(tmp string) error) error {
	s := t.stage(dst)
	if err := build(s.tmp); err != nil {
		s.discard()
		return err
	}
	return s.commit(dst, build)
}

// writeFile creates dst holding data.
func (t *Temps) writeFile(dst string, data []byte, perm os.FileMode) error {
	return t.place(dst, func(tmp string) error { return os.WriteFile(tmp, data, perm) })
}

// mkdirAll is os.MkdirAll with each missing folder made in the pool and
// renamed into place.  RunDir, which holds the pool, is made in place and
// not counted.
func (t *Temps) mkdirAll(path string, perm os.FileMode) error {
	if t != nil && path == filepath.Dir(t.root) {
		return os.MkdirAll(path, perm)
	}
	if info, err := os.Stat(path); err == nil {
		if info.IsDir() {
			return nil
		}
		return &os.PathError{Op: "mkdir", Path: path, Err: syscall.ENOTDIR}
	}
	if parent := filepath.Dir(path); parent != path {
		if err := t.mkdirAll(parent, perm); err != nil {
			return err
		}
	}
	mkdir := func(tmp string) error { return os.Mkdir(tmp, perm) }
	var err error
	if t.pooled(path) {
		err = t.place(path, mkdir)
	} else if err = mkdir(path); err == nil {
		t.count()
	}
	if err != nil {
		// A folder a concurrent writer made first is as good as ours.
		if info, serr := os.Stat(path); serr == nil && info.IsDir() {
			return nil
		}
	}
	return err
}

// create opens a stream to the new file dst: bytes go to a staged temp
// (and through h, when given) that Close renames into place, running
// landed after the rename, and Abort discards.
func (t *Temps) create(dst string, h hash.Hash, landed func()) (*stream, error) {
	s := t.stage(dst)
	f, err := os.OpenFile(s.tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		s.discard()
		return nil, err
	}
	return &stream{f: f, s: s, dst: dst, h: h, landed: landed}, nil
}

// stream is the io.WriteCloser behind both backends' Create.
type stream struct {
	f      *os.File
	s      staged
	dst    string
	h      hash.Hash
	landed func()
}

func (w *stream) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	if w.h != nil {
		w.h.Write(p[:n])
	}
	return n, err
}

// Abort discards the write: the temp is removed and the destination is
// never touched.  Used by producers that fail mid-stream so a truncated
// artifact can never be renamed into place.
func (w *stream) Abort() {
	w.f.Close()
	w.s.discard()
}

func (w *stream) Close() error {
	if err := w.f.Close(); err != nil {
		w.s.discard()
		return err
	}
	err := w.s.commit(w.dst, func(tmp string) error { return copyFile(tmp, w.s.tmp) })
	if err == nil && w.landed != nil {
		w.landed()
	}
	return err
}

// copyFile writes a new file dst holding src's bytes.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
