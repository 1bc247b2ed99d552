package storage

import (
	"bytes"
	"crypto/sha256"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Mem is the in-memory Workspace.  Directories are real — MkdirAll,
// RemoveAll, and the quarantine renames keep their os semantics, so the
// scratch-folder lifecycle and every directory-level assertion behave
// exactly as on disk — but file bytes live in a map shadowing the tree.
// Reads fall through to real disk for paths never written through the
// workspace (the V1 inputs a prepared work directory starts with);
// tombstones shadow disk files the protocol has deleted or moved away.
//
// Two paths hardlinked via Link share one *memFile and therefore one
// generation, mirroring inode sharing on the fs backend.  Rename moves the
// *memFile without touching its generation, mirroring inode preservation.
//
// All methods are safe for concurrent use.
type Mem struct {
	mu       sync.Mutex
	files    map[string]*memFile
	tombs    map[string]bool // deleted/moved-away paths that still exist on real disk
	seq      uint64
	resident int64
	peak     int64
}

// memFile is one in-memory file.  Aliased (hardlinked) paths share the same
// *memFile; seq is its content generation, bumped on every write and
// preserved across rename and link.
type memFile struct {
	data []byte
	mode os.FileMode
	seq  uint64
}

// NewMem returns an empty in-memory workspace.
func NewMem() *Mem {
	return &Mem{files: make(map[string]*memFile), tombs: make(map[string]bool)}
}

// charge adjusts the resident-byte account by delta, tracking the peak.
// Callers hold m.mu.
func (m *Mem) charge(delta int64) {
	m.resident += delta
	if m.resident > m.peak {
		m.peak = m.resident
	}
}

func (m *Mem) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (m *Mem) WriteFile(path string, data []byte, perm os.FileMode) error {
	path = filepath.Clean(path)
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.files[path]; ok {
		m.charge(-int64(len(old.data)))
	}
	m.seq++
	m.files[path] = &memFile{data: cp, mode: perm, seq: m.seq}
	delete(m.tombs, path)
	m.charge(int64(len(cp)))
	return nil
}

// Append extends path's in-memory bytes, hoisting a disk-backed file into
// memory first so the appended content shadows (and on Materialize,
// overwrites) the real file.  Memory is the durability domain of this
// backend, so no fsync analogue applies.
func (m *Mem) Append(path string, data []byte, perm os.FileMode) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path]
	if !ok {
		var init []byte
		if !m.tombs[path] {
			if disk, err := os.ReadFile(path); err == nil {
				init = append([]byte(nil), disk...)
			}
		}
		f = &memFile{data: init, mode: perm}
		m.files[path] = f
		delete(m.tombs, path)
		m.charge(int64(len(init)))
	}
	m.seq++
	f.data = append(f.data, data...)
	f.seq = m.seq
	m.charge(int64(len(data)))
	return nil
}

func (m *Mem) ReadFile(path string) ([]byte, error) {
	path = filepath.Clean(path)
	m.mu.Lock()
	f, ok := m.files[path]
	tomb := m.tombs[path]
	m.mu.Unlock()
	if ok {
		// The stored slice is immutable by contract (WriteFile copies on
		// store and readers never mutate their inputs), so no copy out.
		return f.data, nil
	}
	if tomb {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	return os.ReadFile(path)
}

func (m *Mem) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		if m.tombs[oldpath] {
			return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
		}
		// Disk-backed source: hoist the bytes into memory under the new name
		// and tombstone the original, leaving real disk untouched.
		data, err := os.ReadFile(oldpath)
		if err != nil {
			return err
		}
		m.seq++
		f = &memFile{data: data, mode: 0o644, seq: m.seq}
		m.charge(int64(len(data)))
		m.tombs[oldpath] = true
	} else {
		delete(m.files, oldpath)
		// Shadow any real disk file left under the old name; harmless when
		// none exists.
		m.tombs[oldpath] = true
	}
	if prev, ok := m.files[newpath]; ok {
		m.charge(-int64(len(prev.data)))
	}
	m.files[newpath] = f
	delete(m.tombs, newpath)
	return nil
}

func (m *Mem) Remove(path string) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	if f, ok := m.files[path]; ok {
		m.charge(-int64(len(f.data)))
		delete(m.files, path)
		m.tombs[path] = true
		m.mu.Unlock()
		return nil
	}
	if m.tombs[path] {
		m.mu.Unlock()
		return &fs.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	}
	m.mu.Unlock()
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if info.IsDir() {
		return os.Remove(path)
	}
	m.mu.Lock()
	m.tombs[path] = true
	m.mu.Unlock()
	return nil
}

func (m *Mem) RemoveAll(dir string) error {
	dir = filepath.Clean(dir)
	prefix := dir + string(os.PathSeparator)
	m.mu.Lock()
	for p, f := range m.files {
		if p == dir || strings.HasPrefix(p, prefix) {
			m.charge(-int64(len(f.data)))
			delete(m.files, p)
		}
	}
	for p := range m.tombs {
		if p == dir || strings.HasPrefix(p, prefix) {
			delete(m.tombs, p)
		}
	}
	m.mu.Unlock()
	return os.RemoveAll(dir)
}

func (m *Mem) Stat(path string) (fs.FileInfo, error) {
	path = filepath.Clean(path)
	m.mu.Lock()
	f, ok := m.files[path]
	tomb := m.tombs[path]
	m.mu.Unlock()
	if ok {
		return memInfo{name: filepath.Base(path), f: f}, nil
	}
	if tomb {
		return nil, &fs.PathError{Op: "stat", Path: path, Err: fs.ErrNotExist}
	}
	return os.Stat(path)
}

func (m *Mem) Open(path string) (io.ReadCloser, error) {
	path = filepath.Clean(path)
	m.mu.Lock()
	f, ok := m.files[path]
	tomb := m.tombs[path]
	m.mu.Unlock()
	if ok {
		return io.NopCloser(bytes.NewReader(f.data)), nil
	}
	if tomb {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	return os.Open(path)
}

// Create writes through to real disk (temp + rename on Close, like the fs
// backend) instead of accumulating bytes in memory: streaming producers
// exist precisely so whole artifacts never become resident, so charging
// them here would defeat the backpressure contract.  On Close the path's
// tombstone and any stale in-memory shadow are cleared, so reads fall
// through to the fresh disk file.
func (m *Mem) Create(path string) (io.WriteCloser, error) {
	path = filepath.Clean(path)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &memStreamWriter{m: m, f: f, tmp: tmp, path: path}, nil
}

// memStreamWriter is the io.WriteCloser behind Mem.Create.
type memStreamWriter struct {
	m    *Mem
	f    *os.File
	tmp  string
	path string
}

func (w *memStreamWriter) Write(p []byte) (int, error) { return w.f.Write(p) }

// Abort discards the write: the temp file is removed and the destination —
// on disk or in memory — is never touched.
func (w *memStreamWriter) Abort() {
	w.f.Close()
	os.Remove(w.tmp)
}

func (w *memStreamWriter) Close() error {
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return err
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		return err
	}
	m := w.m
	m.mu.Lock()
	if old, ok := m.files[w.path]; ok {
		m.charge(-int64(len(old.data)))
		delete(m.files, w.path)
	}
	delete(m.tombs, w.path)
	m.mu.Unlock()
	return nil
}

func (m *Mem) List(dir string) ([]fs.DirEntry, error) {
	dir = filepath.Clean(dir)
	real, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	merged := make(map[string]fs.DirEntry, len(real))
	for _, e := range real {
		if m.tombs[filepath.Join(dir, e.Name())] {
			continue
		}
		merged[e.Name()] = e
	}
	for p, f := range m.files {
		if filepath.Dir(p) == dir {
			name := filepath.Base(p)
			merged[name] = memEntry{name: name, f: f}
		}
	}
	m.mu.Unlock()
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]fs.DirEntry, len(names))
	for i, name := range names {
		out[i] = merged[name]
	}
	return out, nil
}

func (m *Mem) Link(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		// Disk-backed or missing source: let the caller fall back to a copy
		// rather than linking real disk into the in-memory namespace.
		return ErrLinkUnsupported
	}
	if _, exists := m.files[newpath]; exists {
		return &os.LinkError{Op: "link", Old: oldpath, New: newpath, Err: fs.ErrExist}
	}
	if !m.tombs[newpath] {
		if _, err := os.Stat(newpath); err == nil {
			return &os.LinkError{Op: "link", Old: oldpath, New: newpath, Err: fs.ErrExist}
		}
	}
	// Both names alias the same *memFile, sharing content and generation —
	// the in-memory analogue of sharing an inode.  The alias is charged to
	// the resident account like a real copy, keeping the gauge conservative.
	m.files[newpath] = f
	delete(m.tombs, newpath)
	m.charge(int64(len(f.data)))
	return nil
}

func (m *Mem) Generation(path string) (any, int64, bool) {
	path = filepath.Clean(path)
	m.mu.Lock()
	f, ok := m.files[path]
	tomb := m.tombs[path]
	m.mu.Unlock()
	if ok {
		return f.seq, int64(len(f.data)), true
	}
	if tomb {
		return nil, 0, false
	}
	return diskGeneration(path)
}

// Sum hashes the in-memory content; the write sequence number Generation
// reports is not a content address and never stands in for it.
func (m *Mem) Sum(path string) ([sha256.Size]byte, int64, bool) {
	path = filepath.Clean(path)
	m.mu.Lock()
	f, ok := m.files[path]
	tomb := m.tombs[path]
	m.mu.Unlock()
	if ok {
		return sha256.Sum256(f.data), int64(len(f.data)), true
	}
	if tomb {
		return [sha256.Size]byte{}, 0, false
	}
	return diskSum(path)
}

// Materialize flushes every in-memory file under dir to real disk (each via
// write-temp + rename, like the fs backend) and removes shadowed disk files
// the tombstones mark as deleted.  Flushed entries leave memory; the peak
// resident count is retained.
func (m *Mem) Materialize(dir string) error {
	dir = filepath.Clean(dir)
	prefix := dir + string(os.PathSeparator)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p, f := range m.files {
		if p != dir && !strings.HasPrefix(p, prefix) {
			continue
		}
		tmp := p + ".tmp"
		if err := os.WriteFile(tmp, f.data, f.mode); err != nil {
			return err
		}
		if err := os.Rename(tmp, p); err != nil {
			os.Remove(tmp)
			return err
		}
		m.charge(-int64(len(f.data)))
		delete(m.files, p)
	}
	for p := range m.tombs {
		if p != dir && !strings.HasPrefix(p, prefix) {
			continue
		}
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
		delete(m.tombs, p)
	}
	return nil
}

func (m *Mem) ResidentBytes() (current, peak int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resident, m.peak
}

// memInfo is the fs.FileInfo of an in-memory file.  ModTime is synthesized
// from the write sequence number, so it is deterministic and strictly
// increasing across writes.
type memInfo struct {
	name string
	f    *memFile
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return int64(len(i.f.data)) }
func (i memInfo) Mode() fs.FileMode  { return i.f.mode }
func (i memInfo) ModTime() time.Time { return time.Unix(0, int64(i.f.seq)) }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }

// memEntry is the fs.DirEntry of an in-memory file.
type memEntry struct {
	name string
	f    *memFile
}

func (e memEntry) Name() string               { return e.name }
func (e memEntry) IsDir() bool                { return false }
func (e memEntry) Type() fs.FileMode          { return 0 }
func (e memEntry) Info() (fs.FileInfo, error) { return memInfo{name: e.name, f: e.f}, nil }

var _ Workspace = (*Mem)(nil)
