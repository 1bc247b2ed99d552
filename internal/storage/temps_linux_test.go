//go:build linux

package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// TestForeignDestinationFallsBackToSiblingTemp writes into a directory on
// another filesystem than the pool (tmpfs /dev/shm against the test's
// temp directory): rename reports EXDEV, and every entry lands through a
// sibling temp instead, intact and counted once, with no temp left.
func TestForeignDestinationFallsBackToSiblingTemp(t *testing.T) {
	dir := t.TempDir()
	foreign, err := os.MkdirTemp("/dev/shm", "storage-exdev-")
	if err != nil {
		t.Skipf("no /dev/shm: %v", err)
	}
	t.Cleanup(func() { os.RemoveAll(foreign) })
	if sameDevice(t, dir, foreign) {
		t.Skip("/dev/shm is on the test directory's filesystem")
	}
	for name, newWS := range pooledBackends(t) {
		t.Run(name, func(t *testing.T) {
			ws := newWS(dir)
			out := filepath.Join(foreign, name)
			if err := ws.MkdirAll(filepath.Join(out, "blobs"), 0o755); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				path := filepath.Join(out, "blobs", fmt.Sprintf("b%d", i))
				if err := ws.WriteFile(path, []byte(path), 0o644); err != nil {
					t.Fatal(err)
				}
				w, err := ws.Create(path + ".r")
				if err != nil {
					t.Fatal(err)
				}
				io.WriteString(w, path)
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := ws.Materialize(out); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(filepath.Join(out, "blobs"))
			if err != nil || len(entries) != 6 {
				t.Fatalf("foreign directory holds %v, %v; want 6 files", names(entries), err)
			}
			for _, e := range entries {
				path := filepath.Join(out, "blobs", e.Name())
				data, _ := os.ReadFile(path)
				if want := filepath.Join(out, "blobs", e.Name()[:2]); string(data) != want {
					t.Errorf("%s = %q, want %q", path, data, want)
				}
			}
			if got := ws.Temps().Created(); got != 2+6 {
				t.Errorf("Created = %d, want 8 (two folders, six files)", got)
			}
			if _, left := poolDirs(t, dir); len(left) != 0 {
				t.Errorf("pool holds %v", left)
			}
			assertPoolRemoved(t, ws, dir)
		})
	}
}

func sameDevice(t *testing.T, a, b string) bool {
	t.Helper()
	ia, err := os.Stat(a)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := os.Stat(b)
	if err != nil {
		t.Fatal(err)
	}
	sa, ok1 := ia.Sys().(*syscall.Stat_t)
	sb, ok2 := ib.Sys().(*syscall.Stat_t)
	return ok1 && ok2 && sa.Dev == sb.Dev
}

// writeFailureEnv hands TestWriteFailureHelper its work directory; unset,
// the helper skips.
const writeFailureEnv = "ACCELPROC_STORAGE_EFBIG_DIR"

// TestWriteFailureRemovesTemp re-runs this test binary under a 64 KiB
// RLIMIT_FSIZE, where writing a 128 KiB file fails with EFBIG part-way
// (Go ignores SIGXFSZ, so the write returns the error): no failed
// WriteFile, Materialize or Create may leave its temp behind, beside the
// destination or in the pool.
func TestWriteFailureRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestWriteFailureHelper$", "-test.v")
	cmd.Env = append(os.Environ(), writeFailureEnv+"="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("--- PASS: TestWriteFailureHelper")) {
		t.Fatalf("helper under RLIMIT_FSIZE failed (err=%v):\n%s", err, out)
	}
}

// TestWriteFailureHelper is the child of TestWriteFailureRemovesTemp.
func TestWriteFailureHelper(t *testing.T) {
	dir := os.Getenv(writeFailureEnv)
	if dir == "" {
		t.Skip("helper: only meaningful as a child of TestWriteFailureRemovesTemp")
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	lim.Cur = 64 << 10
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 128<<10)
	backends := map[string]Workspace{"os": OS{}, "mem": NewMem()}
	for name, newWS := range pooledBackends(t) {
		backends[name+"-pooled"] = newWS(dir)
	}
	for name, ws := range backends {
		out := filepath.Join(dir, name)
		if err := os.Mkdir(out, 0o755); err != nil {
			t.Fatal(err)
		}
		err := ws.WriteFile(filepath.Join(out, "big.v2"), big, 0o644)
		if err == nil {
			err = ws.Materialize(out)
		}
		if !errors.Is(err, syscall.EFBIG) {
			t.Errorf("%s: WriteFile then Materialize = %v, want EFBIG", name, err)
		}
		w, err := ws.Create(filepath.Join(out, "big.r"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(big); !errors.Is(err, syscall.EFBIG) {
			t.Errorf("%s: stream Write = %v, want EFBIG", name, err)
		}
		w.(interface{ Abort() }).Abort()
		if entries, _ := os.ReadDir(out); len(entries) != 0 {
			t.Errorf("%s: failed writes left %v", name, names(entries))
		}
		if _, left := poolDirs(t, dir); len(left) != 0 {
			t.Errorf("%s: failed writes left %v in the pool", name, left)
		}
	}
}

// BenchmarkCreateContention is the probe behind the temp pool: 30 KB
// temp-plus-rename writes into directories whose previous files were just
// deleted, by one writer, by two writers into one directory (free, and
// serialized by a Go mutex), by two writers into two directories, and by
// two writers into one directory through the pooled workspace.  It reports
// wall time (ns/op) and system CPU (sys-us/op) per file.
func BenchmarkCreateContention(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 30<<10)
	plain := func(dir string, i int) error {
		dst := filepath.Join(dir, fmt.Sprintf("f%05d.v2", i))
		if err := os.WriteFile(dst+".tmp", payload, 0o644); err != nil {
			return err
		}
		return os.Rename(dst+".tmp", dst)
	}
	var mu sync.Mutex
	cases := []struct {
		name    string
		writers int
		dirs    int
		write   func(ws Workspace, dir string, i int) error
	}{
		{"one-writer", 1, 1, func(_ Workspace, dir string, i int) error { return plain(dir, i) }},
		{"two-writers-one-dir", 2, 1, func(_ Workspace, dir string, i int) error { return plain(dir, i) }},
		{"two-writers-one-dir-mutex", 2, 1, func(_ Workspace, dir string, i int) error {
			mu.Lock()
			defer mu.Unlock()
			return plain(dir, i)
		}},
		{"two-writers-two-dirs", 2, 2, func(_ Workspace, dir string, i int) error { return plain(dir, i) }},
		{"two-writers-one-dir-pool", 2, 1, func(ws Workspace, dir string, i int) error {
			return ws.WriteFile(filepath.Join(dir, fmt.Sprintf("f%05d.v2", i)), payload, 0o644)
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			work := b.TempDir()
			ws, _ := New(BackendFS, work)
			dirs := make([]string, c.dirs)
			for d := range dirs {
				dirs[d] = filepath.Join(work, fmt.Sprintf("d%d", d))
				if err := os.Mkdir(dirs[d], 0o755); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					if err := plain(dirs[d], i); err != nil {
						b.Fatal(err)
					}
				}
				for i := 0; i < b.N; i++ {
					os.Remove(filepath.Join(dirs[d], fmt.Sprintf("f%05d.v2", i)))
				}
			}
			var ru0, ru1 syscall.Rusage
			syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < c.writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					dir := dirs[w%c.dirs]
					for i := w; i < b.N; i += c.writers {
						if err := c.write(ws, dir, i); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
			sys := time.Duration(ru1.Stime.Nano() - ru0.Stime.Nano())
			b.ReportMetric(float64(sys.Microseconds())/float64(b.N), "sys-us/op")
			ws.Temps().Close()
		})
	}
}

// TestPoolRootIsTopDir: on a filesystem with inode flags the pool folder
// carries the Orlov top-directory hint, so its private directories are
// spread over block groups instead of sharing the work directory's.
func TestPoolRootIsTopDir(t *testing.T) {
	dir := t.TempDir()
	ws, _ := New(BackendFS, dir)
	if err := ws.WriteFile(filepath.Join(dir, "a.v2"), []byte("a"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer ws.Temps().Close()
	f, err := os.Open(filepath.Join(dir, RunDir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var flags int32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		t.Skipf("no inode flags on this filesystem: %v", e)
	}
	if flags&fsTopDirFl == 0 {
		t.Errorf("pool folder flags %#x lack the top-directory hint", flags)
	}
}
