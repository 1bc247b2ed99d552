package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// pooledBackends returns both backends with the temp pool of a fresh work
// directory.
func pooledBackends(t *testing.T) map[string]func(dir string) Workspace {
	t.Helper()
	mk := func(b Backend) func(dir string) Workspace {
		return func(dir string) Workspace {
			ws, err := New(b, dir)
			if err != nil {
				t.Fatal(err)
			}
			return ws
		}
	}
	return map[string]func(string) Workspace{"fs": mk(BackendFS), "mem": mk(BackendMem)}
}

// poolDirs lists the private directories of dir's temp pool and the
// entries left inside them.
func poolDirs(t *testing.T, dir string) (dirs int, leftovers []string) {
	t.Helper()
	root := filepath.Join(dir, RunDir, "tmp")
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		inner, err := os.ReadDir(filepath.Join(root, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range inner {
			leftovers = append(leftovers, filepath.Join(e.Name(), f.Name()))
		}
	}
	return len(entries), leftovers
}

// assertPoolRemoved fails unless Close left no RunDir behind.
func assertPoolRemoved(t *testing.T, ws Workspace, dir string) {
	t.Helper()
	if err := ws.Temps().Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, RunDir)); !os.IsNotExist(err) {
		t.Errorf("%s survived Close (err=%v)", RunDir, err)
	}
}

// TestListingShowsNoInFlightTemp lists the destination directory while a
// Create and a stream of WriteFiles into it are in flight: no temp entry
// may ever show, only complete files (the race of a stage that lists the
// work directory while another writes its flags file).
func TestListingShowsNoInFlightTemp(t *testing.T) {
	for name, newWS := range pooledBackends(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "out")
			if err := os.Mkdir(out, 0o755); err != nil {
				t.Fatal(err)
			}
			ws := newWS(dir)
			w, err := ws.Create(filepath.Join(out, "stream.r"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("half a product")); err != nil {
				t.Fatal(err)
			}
			if entries, err := ws.List(out); err != nil || len(entries) != 0 {
				t.Fatalf("listing during Create = %v, %v; want empty", names(entries), err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			want := map[string]bool{"stream.r": true}
			payload := bytes.Repeat([]byte("x"), 256<<10)
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for i := 0; i < 50; i++ {
					if err := ws.WriteFile(filepath.Join(out, "flags.meta"), payload, 0o644); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			listings := 0
			for running := true; running; listings++ {
				select {
				case <-done:
					running = false
				default:
				}
				entries, err := os.ReadDir(out)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if !want[e.Name()] && e.Name() != "flags.meta" {
						t.Fatalf("listing %d shows %q while a write is in flight", listings, e.Name())
					}
				}
			}
			wg.Wait()
			assertPoolRemoved(t, ws, dir)
		})
	}
}

func names(entries []os.DirEntry) []string {
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// TestConcurrentWritersOneDirectory has N goroutines write M distinct files
// each into one directory, half through WriteFile and half through Create:
// every file arrives intact with its mode, the pool grows to at most one
// directory per writer and ends empty, and Close removes it.
func TestConcurrentWritersOneDirectory(t *testing.T) {
	const writers, files = 6, 12
	for name, newWS := range pooledBackends(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ws := newWS(dir)
			content := func(g, i int) []byte { return []byte(fmt.Sprintf("writer %d file %d\n", g, i)) }
			fileName := func(g, i int) string {
				if i == 0 {
					return fmt.Sprintf("w%d_filter.exe", g)
				}
				return fmt.Sprintf("w%d_%02d.v2", g, i)
			}
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < files; i++ {
						path := filepath.Join(dir, fileName(g, i))
						if i == 0 {
							if err := ws.WriteFile(path, content(g, i), 0o755); err != nil {
								t.Error(err)
							}
							continue
						}
						if i%2 == 0 {
							if err := ws.WriteFile(path, content(g, i), 0o644); err != nil {
								t.Error(err)
							}
							continue
						}
						w, err := ws.Create(path)
						if err != nil {
							t.Error(err)
							continue
						}
						w.Write(content(g, i))
						if err := w.Close(); err != nil {
							t.Error(err)
						}
					}
				}(g)
			}
			wg.Wait()
			if err := ws.Materialize(dir); err != nil {
				t.Fatal(err)
			}
			for g := 0; g < writers; g++ {
				for i := 0; i < files; i++ {
					path := filepath.Join(dir, fileName(g, i))
					data, err := os.ReadFile(path)
					if err != nil || !bytes.Equal(data, content(g, i)) {
						t.Errorf("%s = %q, %v", path, data, err)
						continue
					}
					info, _ := os.Stat(path)
					if want := os.FileMode(0o644); i == 0 && info.Mode().Perm() != 0o755 ||
						i > 0 && info.Mode().Perm() != want {
						t.Errorf("%s mode %v", path, info.Mode().Perm())
					}
				}
			}
			n, left := poolDirs(t, dir)
			if n > writers {
				t.Errorf("pool grew to %d directories for %d writers", n, writers)
			}
			if len(left) != 0 {
				t.Errorf("pool holds %v after every write landed", left)
			}
			if got := ws.Temps().Created(); got != writers*files {
				t.Errorf("Created = %d, want %d", got, writers*files)
			}
			assertPoolRemoved(t, ws, dir)
		})
	}
}

// TestAbortLeavesNothing: an aborted stream leaves no destination, no
// temp, and nothing in the pool.
func TestAbortLeavesNothing(t *testing.T) {
	for name, newWS := range pooledBackends(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ws := newWS(dir)
			dst := filepath.Join(dir, "SS01L.r")
			w, err := ws.Create(dst)
			if err != nil {
				t.Fatal(err)
			}
			w.Write([]byte("truncated"))
			w.(interface{ Abort() }).Abort()
			if _, err := os.Stat(dst); !os.IsNotExist(err) {
				t.Errorf("aborted destination exists (err=%v)", err)
			}
			if _, left := poolDirs(t, dir); len(left) != 0 {
				t.Errorf("pool holds %v after Abort", left)
			}
			if got := ws.Temps().Created(); got != 0 {
				t.Errorf("Created = %d after Abort, want 0", got)
			}
			assertPoolRemoved(t, ws, dir)
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("work directory holds %v", names(entries))
			}
		})
	}
}

// TestMkdirAllThroughPool makes nested folders through the pool: each
// counts once, an existing folder is left alone, a file in the way is an
// error, and the pool's own folders are not counted.
func TestMkdirAllThroughPool(t *testing.T) {
	dir := t.TempDir()
	ws, _ := New(BackendFS, dir)
	deep := filepath.Join(dir, "tmp_def_00_SS01", "a", "b")
	if err := ws.MkdirAll(deep, 0o750); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(deep); err != nil || !info.IsDir() || info.Mode().Perm() != 0o750 {
		t.Fatalf("Stat(%s) = %v, %v", deep, info, err)
	}
	if err := ws.MkdirAll(deep, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ws.MkdirAll(filepath.Join(dir, RunDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if got := ws.Temps().Created(); got != 3 {
		t.Errorf("Created = %d, want 3", got)
	}
	file := filepath.Join(dir, "flags.meta")
	if err := ws.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ws.MkdirAll(file, 0o755); err == nil {
		t.Error("MkdirAll over a file succeeded")
	}
	if _, left := poolDirs(t, dir); len(left) != 0 {
		t.Errorf("pool holds %v", left)
	}
	assertPoolRemoved(t, ws, dir)
}

// TestSweepRemovesOnlyOthersDebris seeds the pool folder with a crashed
// run's private directories, one old and one fresh: an age-bounded sweep
// removes the old one, a full sweep the fresh one too, and neither touches
// the pool's own live directories.
func TestSweepRemovesOnlyOthersDebris(t *testing.T) {
	dir := t.TempDir()
	ws, _ := New(BackendFS, dir)
	root := filepath.Join(dir, RunDir, "tmp")
	old, fresh := filepath.Join(root, "w111"), filepath.Join(root, "w222")
	for _, d := range []string{old, fresh} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "SS01L.v2"), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	past := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(old, past, past); err != nil {
		t.Fatal(err)
	}
	w, err := ws.Create(filepath.Join(dir, "live.r"))
	if err != nil {
		t.Fatal(err)
	}
	if swept, failed := ws.Temps().Sweep(time.Hour); swept != 1 || failed != 0 {
		t.Errorf("age-bounded Sweep = %d swept, %d failed; want 1, 0", swept, failed)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh debris swept by the age-bounded pass: %v", err)
	}
	if swept, failed := ws.Temps().Sweep(0); swept != 1 || failed != 0 {
		t.Errorf("full Sweep = %d swept, %d failed; want 1, 0", swept, failed)
	}
	if _, err := w.Write([]byte("live")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("a sweep removed the live stream's temp: %v", err)
	}
	assertPoolRemoved(t, ws, dir)
}
