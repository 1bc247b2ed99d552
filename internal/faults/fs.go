package faults

import (
	"crypto/sha256"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"accelproc/internal/storage"
)

// FS is the file-operation surface the pipeline's staging protocol runs on —
// an alias for the storage plane's Workspace, so any backend (fs, mem) can
// sit under the chaos decorator.  The production implementation is
// storage.OS; chaos runs interpose a fault-deciding wrapper obtained from
// Chaos.At.
type FS = storage.Workspace

// OS is the passthrough FS backed by the real filesystem (an alias for the
// storage plane's disk backend).
type OS = storage.OS

// truncatePoint is how many bytes of a payload a KindTruncate fault lets
// through before failing: enough that the destination file exists and looks
// plausible, short enough that any real product is visibly cut.
const truncatePoint = 512

// Chaos binds an Injector to a base FS and hands out stage/record-scoped
// views whose every operation consults the injector first.  A nil *Chaos
// yields passthrough behavior everywhere.
type Chaos struct {
	inj   *Injector
	base  FS
	sleep func(time.Duration) error
	delay time.Duration
}

// NewChaos wraps base with injector-driven faults.  sleep implements
// KindSlow delays and may return early with an error on cancellation; nil
// selects time.Sleep.
func NewChaos(inj *Injector, base FS, sleep func(time.Duration) error) *Chaos {
	if base == nil {
		base = storage.Disk()
	}
	if sleep == nil {
		sleep = func(d time.Duration) error { time.Sleep(d); return nil }
	}
	delay := inj.cfgDelay()
	return &Chaos{inj: inj, base: base, sleep: sleep, delay: delay}
}

// cfgDelay exposes the resolved slow-op delay (nil-safe).
func (in *Injector) cfgDelay() time.Duration {
	if in == nil {
		return 0
	}
	return in.cfg.SlowDelay
}

// Injected reports the total faults injected so far (nil-safe).
func (c *Chaos) Injected() uint64 {
	if c == nil {
		return 0
	}
	return c.inj.Injected()
}

// At returns an FS whose operations are attributed to (stage, record).
// Event-scoped work passes "" for both.  A nil *Chaos returns the plain
// disk workspace.
func (c *Chaos) At(stage, record string) FS {
	if c == nil {
		return storage.Disk()
	}
	return chaosFS{c: c, stage: stage, record: record}
}

// Exec asks the injector whether the simulated binary execution for
// (stage, record) should fail.  KindCrash and KindTransient surface as
// their sentinel errors, KindPermanent as ErrPermanent, KindSlow delays and
// then succeeds.  A nil *Chaos never fails.
func (c *Chaos) Exec(stage, record string) error {
	if c == nil {
		return nil
	}
	return c.fault(Site{Stage: stage, Record: record, Op: "exec", Path: record})
}

// fault turns the injector's decision for site into an error (or a delay,
// or nothing).  KindTruncate is handled by the write path, not here.
func (c *Chaos) fault(site Site) error {
	switch c.inj.Decide(site) {
	case KindTransient, KindTruncate:
		return &injectedError{site: site, err: ErrTransient}
	case KindPermanent:
		return &injectedError{site: site, err: ErrPermanent}
	case KindCrash:
		return &injectedError{site: site, err: ErrCrash}
	case KindSlow:
		return c.sleep(c.delay)
	}
	return nil
}

// injectedError ties a sentinel fault to the site it hit.
type injectedError struct {
	site Site
	err  error
}

func (e *injectedError) Error() string { return e.err.Error() + " at " + e.site.String() }
func (e *injectedError) Unwrap() error { return e.err }

// chaosFS consults the injector before delegating to the base FS.  Faults
// are injected *before* the underlying operation runs (the op is not
// performed), so op-granularity retries stay idempotent; KindTruncate is
// the one exception — WriteFile delivers a prefix and then fails, modeling
// a partial write that a retry must overwrite.
//
// Only the seven staging operations are fault sites.  The Workspace
// extensions (Open, List, Generation, Sum, Materialize, ResidentBytes) pass
// through untouched, and Link always refuses so chaos runs take the real
// read+write copy path the injector can see — keeping the set of decisions
// per seed identical to the pre-storage-plane protocol.
type chaosFS struct {
	c             *Chaos
	stage, record string
}

func (f chaosFS) site(op, path string) Site {
	return Site{Stage: f.stage, Record: f.record, Op: op, Path: filepath.Base(path)}
}

func (f chaosFS) MkdirAll(path string, perm os.FileMode) error {
	if err := f.c.fault(f.site("mkdir", path)); err != nil {
		return err
	}
	return f.c.base.MkdirAll(path, perm)
}

func (f chaosFS) Rename(oldpath, newpath string) error {
	if err := f.c.fault(f.site("move", oldpath)); err != nil {
		return err
	}
	return f.c.base.Rename(oldpath, newpath)
}

func (f chaosFS) Remove(path string) error {
	if err := f.c.fault(f.site("remove", path)); err != nil {
		return err
	}
	return f.c.base.Remove(path)
}

func (f chaosFS) RemoveAll(path string) error {
	if err := f.c.fault(f.site("remove", path)); err != nil {
		return err
	}
	return f.c.base.RemoveAll(path)
}

func (f chaosFS) Stat(path string) (fs.FileInfo, error) {
	if err := f.c.fault(f.site("stat", path)); err != nil {
		return nil, err
	}
	return f.c.base.Stat(path)
}

func (f chaosFS) ReadFile(path string) ([]byte, error) {
	if err := f.c.fault(f.site("read", path)); err != nil {
		return nil, err
	}
	return f.c.base.ReadFile(path)
}

func (f chaosFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	site := f.site("write", path)
	switch f.c.inj.Decide(site) {
	case KindTransient:
		return &injectedError{site: site, err: ErrTransient}
	case KindPermanent:
		return &injectedError{site: site, err: ErrPermanent}
	case KindCrash:
		return &injectedError{site: site, err: ErrCrash}
	case KindSlow:
		if err := f.c.sleep(f.c.delay); err != nil {
			return err
		}
	case KindTruncate:
		n := truncatePoint
		if n > len(data) {
			n = len(data) / 2
		}
		if err := f.c.base.WriteFile(path, data[:n], perm); err != nil {
			return err
		}
		return &injectedError{site: site, err: ErrTruncated}
	}
	return f.c.base.WriteFile(path, data, perm)
}

// Append passes through untouched, like the other Workspace extensions:
// the run journal is recovery machinery, not part of the staged protocol,
// and faulting it would perturb the per-seed decision sequences the chaos
// suite pins.  Chaos runs journal; only the seven staging ops are faulted.
func (f chaosFS) Append(path string, data []byte, perm os.FileMode) error {
	return f.c.base.Append(path, data, perm)
}

// Link always refuses under chaos: the copy fallback issues a read+write
// pair the injector can fault, whereas a hardlink would be an invisible
// zero-copy shortcut that changed the decision sequence per seed.
func (f chaosFS) Link(oldpath, newpath string) error { return storage.ErrLinkUnsupported }

func (f chaosFS) Open(path string) (io.ReadCloser, error) { return f.c.base.Open(path) }

// Create passes through untouched: streaming mode is rejected under chaos
// (see pipeline.Options validation), so streamed writes are never fault
// sites and the per-seed decision sequences stay pinned.
func (f chaosFS) Create(path string) (io.WriteCloser, error) { return f.c.base.Create(path) }

func (f chaosFS) List(dir string) ([]fs.DirEntry, error) { return f.c.base.List(dir) }

func (f chaosFS) Generation(path string) (any, int64, bool) { return f.c.base.Generation(path) }

func (f chaosFS) Sum(path string) ([sha256.Size]byte, int64, bool) { return f.c.base.Sum(path) }

func (f chaosFS) Materialize(dir string) error { return f.c.base.Materialize(dir) }

func (f chaosFS) ResidentBytes() (current, peak int64) { return f.c.base.ResidentBytes() }

// CopyFile copies src to dst through fsys, so chaos runs can fault either
// side of the copy.  It exists here because io.Copy-style streaming through
// an interposed FS reduces to read-then-write for the pipeline's small
// products.
func CopyFile(fsys FS, dst, src string) error {
	data, err := fsys.ReadFile(src)
	if err != nil {
		return err
	}
	return fsys.WriteFile(dst, data, 0o644)
}

// Interface satisfaction check.
var _ FS = chaosFS{}
