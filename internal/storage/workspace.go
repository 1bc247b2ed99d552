// Package storage is the pipeline's pluggable storage plane: the file
// protocol the 20 processes communicate through, lifted behind a Workspace
// interface so the same staging code can run against the real filesystem
// (the legacy chain's behavior, byte for byte) or an in-memory blob store
// that materializes to disk only where the protocol demands real files.
//
// Two backends implement Workspace here:
//
//   - OS: every operation is the corresponding os call, with WriteFile
//     hardened to write-temp + rename so a destination path only ever holds
//     a complete file (load-bearing for hardlink staging: an overwrite binds
//     a fresh inode instead of truncating a shared one).
//   - Mem: directories stay real (the scratch-folder lifecycle, the
//     quarantine moves, and the work-dir listings keep their os semantics),
//     but file bytes live in memory, shadowing the directory tree, until
//     Materialize flushes them under a requested subtree.
//
// A third implementation lives in internal/faults: the chaos decorator
// wraps any Workspace and interposes the fault injector on the seven
// staging operations, so retry, quarantine, and scratch cleanup behave
// identically on every backend.
package storage

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// Workspace is the storage surface the pipeline's inter-stage file protocol
// runs on.  The first seven methods are the staging operations the fault
// injector interposes (see internal/faults); the rest are the read-side and
// lifecycle extensions the backends need: hardlink staging, streamed header
// peeks, directory listings, cache generations, content sums, and the
// on-demand flush of in-memory state to real disk.
//
// WriteFile and Create always bind the destination to fresh storage (a new
// inode on disk, a new *memFile in memory) rather than truncating what it
// held, and nothing in the pipeline rewrites a product in place: Append is
// reserved for the run journal.  Hardlinks depend on that invariant.  A
// product may share its inode with a scratch-folder staging link and with
// the action cache's blob of the same bytes, and rewriting the product must
// leave both untouched.
type Workspace interface {
	MkdirAll(path string, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(path string) error
	RemoveAll(path string) error
	Stat(path string) (fs.FileInfo, error)
	ReadFile(path string) ([]byte, error)
	WriteFile(path string, data []byte, perm os.FileMode) error

	// Append appends data to path, creating the file if absent.  On
	// disk-backed workspaces the write is fsync'd before returning: Append
	// is the durability primitive of the write-ahead run journal, and a
	// record it reports as written must survive the process dying
	// immediately afterwards.
	Append(path string, data []byte, perm os.FileMode) error

	// Link makes newpath a second name for oldpath's current content, the
	// zero-copy stage-in fast path.  Backends that cannot link (or decorators
	// that must keep the copy visible to a fault injector) return
	// ErrLinkUnsupported and callers fall back to a real copy; an existing
	// newpath reports an error satisfying errors.Is(err, fs.ErrExist).
	Link(oldpath, newpath string) error
	// Open streams path for incremental reads (header peeks on multi-MB
	// payloads that must not be slurped whole).
	Open(path string) (io.ReadCloser, error)
	// Create streams path for incremental writes: the streaming-mode dual of
	// Open, for producers whose payload must never be resident in full.  The
	// destination is written atomically — bytes accumulate in a sibling temp
	// file that only a successful Close renames into place, so path either
	// holds the complete payload or does not exist (load-bearing for the
	// journal plane: an unfinished streamed product is invisible, and resume
	// simply re-executes its node).  Every backend streams to real disk;
	// in-memory workspaces deliberately write through, so chunked producers
	// never inflate ResidentBytes with whole artifacts.
	Create(path string) (io.WriteCloser, error)
	// List returns the directory entries of dir, sorted by name.
	List(dir string) ([]fs.DirEntry, error)
	// Generation returns an opaque comparable token identifying path's
	// current content, plus its size in bytes: the artifact cache's
	// coherence check.  ok is false when the path does not currently hold a
	// regular file.
	Generation(path string) (gen any, size int64, ok bool)
	// Sum returns the SHA-256 of path's current content and its size: the
	// action cache's content address and the action digest's input key.
	// Unlike Generation's token it is equal across backends for equal
	// bytes.  ok is false when the path does not currently hold a regular
	// file.
	Sum(path string) (sum [sha256.Size]byte, size int64, ok bool)
	// Materialize flushes every in-memory file under dir to real disk (and
	// applies pending deletions of shadowed disk files), so plain-os
	// consumers see the backend's state.  A no-op on disk-backed workspaces.
	Materialize(dir string) error
	// ResidentBytes reports the bytes currently held in memory and the peak
	// held at any point, for the storage_bytes_resident gauges.  Zero on
	// disk-backed workspaces.
	ResidentBytes() (current, peak int64)
}

// ErrLinkUnsupported is returned by Link when the backend cannot alias the
// two paths; callers must fall back to a real copy.
var ErrLinkUnsupported = errors.New("storage: hardlink not supported")

// Backend names a Workspace implementation for options and CLI flags.
type Backend string

// The built-in backends.
const (
	// BackendFS is the real filesystem (the default): current behavior,
	// byte-identical on disk.
	BackendFS Backend = "fs"
	// BackendMem holds file bytes in memory over a real directory tree,
	// materializing to disk on demand.
	BackendMem Backend = "mem"
)

// ParseBackend maps a command-line spelling to a Backend.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "fs", "disk":
		return BackendFS, nil
	case "mem", "memory":
		return BackendMem, nil
	default:
		return "", fmt.Errorf("storage: unknown backend %q (want fs or mem)", name)
	}
}

// New returns a fresh Workspace for the backend.  The empty Backend selects
// BackendFS, so a zero-valued options struct keeps today's behavior.
func New(b Backend) (Workspace, error) {
	switch b {
	case "", BackendFS:
		return OS{}, nil
	case BackendMem:
		return NewMem(), nil
	default:
		return nil, fmt.Errorf("storage: unknown backend %q (want fs or mem)", string(b))
	}
}

// Disk returns the plain filesystem workspace: the stateless OS backend,
// shared freely.
func Disk() Workspace { return OS{} }
