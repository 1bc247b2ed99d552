package storage

import (
	"crypto/sha256"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestParseBackend(t *testing.T) {
	cases := []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"", BackendFS, true},
		{"fs", BackendFS, true},
		{"disk", BackendFS, true},
		{"mem", BackendMem, true},
		{"memory", BackendMem, true},
		{"s3", "", false},
	}
	for _, c := range cases {
		got, err := ParseBackend(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseBackend(%q) succeeded; want error", c.in)
		}
	}
}

func TestNewSelectsBackend(t *testing.T) {
	ws, err := New(BackendFS)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ws.(OS); !ok {
		t.Errorf("New(fs) = %T; want storage.OS", ws)
	}
	ws, err = New(BackendMem)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ws.(*Mem); !ok {
		t.Errorf("New(mem) = %T; want *storage.Mem", ws)
	}
	if _, err := New("tape"); err == nil {
		t.Error("New(tape) succeeded; want error")
	}
}

func TestOSWriteFileIsAtomicRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.v2")
	if err := (OS{}).WriteFile(path, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "payload" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
	// An overwrite must bind the path to a fresh inode, leaving hardlink
	// aliases of the old content untouched.
	alias := filepath.Join(dir, "alias.v2")
	if err := os.Link(path, alias); err != nil {
		t.Skipf("hardlinks unsupported here: %v", err)
	}
	if err := (OS{}).WriteFile(path, []byte("fresh"), 0o644); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(alias); string(data) != "payload" {
		t.Errorf("alias mutated by overwrite: %q", data)
	}
}

func TestMemWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := NewMem()
	path := filepath.Join(dir, "a.v1")
	if err := m.WriteFile(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := m.ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	// Nothing on real disk until materialized.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("blob leaked to disk: %v", err)
	}
	info, err := m.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name() != "a.v1" || info.Size() != 5 || info.IsDir() {
		t.Errorf("Stat = %q size=%d dir=%v", info.Name(), info.Size(), info.IsDir())
	}
	rc, err := m.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	streamed, _ := io.ReadAll(rc)
	rc.Close()
	if string(streamed) != "hello" {
		t.Errorf("Open streamed %q", streamed)
	}
}

func TestMemFallsThroughToDisk(t *testing.T) {
	dir := t.TempDir()
	m := NewMem()
	path := filepath.Join(dir, "seed.v1")
	if err := os.WriteFile(path, []byte("from-disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := m.ReadFile(path)
	if err != nil || string(data) != "from-disk" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if _, err := m.Stat(path); err != nil {
		t.Errorf("Stat fell through: %v", err)
	}
	// Removing a disk-backed file tombstones it without touching disk...
	if err := m.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadFile(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("tombstoned read err = %v; want ErrNotExist", err)
	}
	if _, err := m.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("tombstoned stat err = %v; want ErrNotExist", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("physical file disturbed: %v", err)
	}
	// ...and a second remove reports not-exist, like the real fs.
	if err := m.Remove(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("double remove err = %v; want ErrNotExist", err)
	}
}

func TestMemRenameSemantics(t *testing.T) {
	dir := t.TempDir()
	m := NewMem()
	src := filepath.Join(dir, "src.v2")
	dst := filepath.Join(dir, "dst.v2")
	if err := m.WriteFile(src, []byte("body"), 0o644); err != nil {
		t.Fatal(err)
	}
	gBefore, _, _ := m.Generation(src)
	if err := m.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadFile(src); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("source survives rename: %v", err)
	}
	if data, err := m.ReadFile(dst); err != nil || string(data) != "body" {
		t.Fatalf("dest after rename = %q, %v", data, err)
	}
	gAfter, _, ok := m.Generation(dst)
	if !ok || gAfter != gBefore {
		t.Errorf("rename changed generation: %v -> %v", gBefore, gAfter)
	}
	// Missing source must satisfy errors.Is(err, fs.ErrNotExist) — the
	// stage-move error path keys on it.
	if err := m.Rename(src, dst); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("rename of missing src err = %v; want ErrNotExist", err)
	}
	// Disk-backed source: bytes hoisted into memory, original shadowed.
	seeded := filepath.Join(dir, "seed.v1")
	if err := os.WriteFile(seeded, []byte("disk-bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	moved := filepath.Join(dir, "moved.v1")
	if err := m.Rename(seeded, moved); err != nil {
		t.Fatal(err)
	}
	if data, err := m.ReadFile(moved); err != nil || string(data) != "disk-bytes" {
		t.Fatalf("hoisted rename = %q, %v", data, err)
	}
	if _, err := m.ReadFile(seeded); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("disk source not shadowed: %v", err)
	}
}

func TestMemLinkAliasesAndRefuses(t *testing.T) {
	dir := t.TempDir()
	m := NewMem()
	src := filepath.Join(dir, "src.f")
	dst := filepath.Join(dir, "dst.f")
	if err := m.WriteFile(src, []byte("spectrum"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Link(src, dst); err != nil {
		t.Fatal(err)
	}
	gs, _, _ := m.Generation(src)
	gd, _, _ := m.Generation(dst)
	if gs != gd {
		t.Errorf("link generations differ: %v vs %v", gs, gd)
	}
	// Existing destination must satisfy errors.Is(err, fs.ErrExist).
	if err := m.Link(src, dst); !errors.Is(err, fs.ErrExist) {
		t.Errorf("link onto existing err = %v; want ErrExist", err)
	}
	// Disk-backed sources are not linkable: callers fall back to a copy.
	seeded := filepath.Join(dir, "seed.v1")
	if err := os.WriteFile(seeded, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Link(seeded, filepath.Join(dir, "other.v1")); !errors.Is(err, ErrLinkUnsupported) {
		t.Errorf("disk-source link err = %v; want ErrLinkUnsupported", err)
	}
}

func TestMemListOverlaysAndShadows(t *testing.T) {
	dir := t.TempDir()
	m := NewMem()
	if err := os.WriteFile(filepath.Join(dir, "disk.v1"), []byte("d"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "gone.v1"), []byte("g"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile(filepath.Join(dir, "blob.v2"), []byte("b"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(filepath.Join(dir, "gone.v1")); err != nil {
		t.Fatal(err)
	}
	entries, err := m.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"blob.v2", "disk.v1"}
	if len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Errorf("List = %v; want %v", names, want)
	}
}

func TestMemMaterializeFlushesAndApplesTombstones(t *testing.T) {
	dir := t.TempDir()
	m := NewMem()
	blob := filepath.Join(dir, "out.v2")
	doomed := filepath.Join(dir, "doomed.v1")
	if err := os.WriteFile(doomed, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile(blob, []byte("final-bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(doomed); err != nil {
		t.Fatal(err)
	}
	if err := m.Materialize(dir); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(blob); err != nil || string(data) != "final-bytes" {
		t.Fatalf("materialized blob = %q, %v", data, err)
	}
	if _, err := os.Stat(doomed); !os.IsNotExist(err) {
		t.Errorf("tombstoned file survived materialize: %v", err)
	}
	cur, peak := m.ResidentBytes()
	if cur != 0 {
		t.Errorf("resident after materialize = %d; want 0", cur)
	}
	if peak != int64(len("final-bytes")) {
		t.Errorf("peak = %d; want %d", peak, len("final-bytes"))
	}
}

func TestMemResidentAccounting(t *testing.T) {
	dir := t.TempDir()
	m := NewMem()
	a := filepath.Join(dir, "a")
	b := filepath.Join(dir, "b")
	if err := m.WriteFile(a, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile(b, make([]byte, 50), 0o644); err != nil {
		t.Fatal(err)
	}
	if cur, peak := m.ResidentBytes(); cur != 150 || peak != 150 {
		t.Fatalf("after writes: cur=%d peak=%d", cur, peak)
	}
	// Overwrite shrinks current, keeps peak.
	if err := m.WriteFile(a, make([]byte, 10), 0o644); err != nil {
		t.Fatal(err)
	}
	if cur, peak := m.ResidentBytes(); cur != 60 || peak != 150 {
		t.Fatalf("after overwrite: cur=%d peak=%d", cur, peak)
	}
	if err := m.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if cur, peak := m.ResidentBytes(); cur != 0 || peak != 150 {
		t.Fatalf("after RemoveAll: cur=%d peak=%d", cur, peak)
	}
}

func TestMemRemoveAllPurgesSubtree(t *testing.T) {
	dir := t.TempDir()
	m := NewMem()
	scratch := filepath.Join(dir, "tmp_def_01_SS01")
	if err := m.MkdirAll(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	inner := filepath.Join(scratch, "part.v1")
	if err := m.WriteFile(inner, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	outer := filepath.Join(dir, "keep.v1")
	if err := m.WriteFile(outer, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveAll(scratch); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(scratch); !os.IsNotExist(err) {
		t.Errorf("scratch dir survived: %v", err)
	}
	if _, err := m.ReadFile(inner); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("inner blob survived: %v", err)
	}
	if _, err := m.ReadFile(outer); err != nil {
		t.Errorf("sibling blob purged: %v", err)
	}
}

// TestOSGenerationDetectsSameSizeSameMtimeRewrite is the mtime-aliasing
// regression test: an in-place rewrite of identical size with the mtime
// pinned back to the original (the worst case of two writes inside one
// filesystem timestamp tick) must still change the generation, because the
// token carries the content hash and the hash memo revalidates on ctime.
func TestOSGenerationDetectsSameSizeSameMtimeRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gen.v2")
	if err := os.WriteFile(path, []byte("12345678"), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	g1, size, ok := (OS{}).Generation(path)
	if !ok || size != 8 {
		t.Fatalf("Generation = %v, %d, %v", g1, size, ok)
	}
	// Probe twice: the second must come from the hash memo and agree.
	if g1b, _, _ := (OS{}).Generation(path); g1 != g1b {
		t.Fatal("memoized generation differs from the fresh one")
	}
	if err := os.WriteFile(path, []byte("87654321"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, info.ModTime(), info.ModTime()); err != nil {
		t.Fatal(err)
	}
	g2, _, _ := (OS{}).Generation(path)
	if g1 == g2 {
		t.Error("generation unchanged across same-size same-mtime rewrite")
	}
	if _, _, ok := (OS{}).Generation(dir); ok {
		t.Error("Generation of a directory reported ok")
	}
}

func TestMemGenerationChangesOnWrite(t *testing.T) {
	dir := t.TempDir()
	m := NewMem()
	path := filepath.Join(dir, "gen.v2")
	if err := m.WriteFile(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	g1, size, ok := m.Generation(path)
	if !ok || size != 3 {
		t.Fatalf("Generation = %v, %d, %v", g1, size, ok)
	}
	if err := m.WriteFile(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	g2, _, _ := m.Generation(path)
	if g1 == g2 {
		t.Error("generation unchanged across rewrite of same-size content")
	}
	if _, _, ok := m.Generation(filepath.Join(dir, "absent")); ok {
		t.Error("Generation of missing path reported ok")
	}
}

func TestAppendBothBackends(t *testing.T) {
	for _, tc := range []struct {
		name string
		ws   func() Workspace
	}{
		{"os", func() Workspace { return OS{} }},
		{"mem", func() Workspace { return NewMem() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := tc.ws()
			dir := t.TempDir()
			path := filepath.Join(dir, "journal")
			if err := ws.Append(path, []byte("one\n"), 0o644); err != nil {
				t.Fatalf("Append (create): %v", err)
			}
			if err := ws.Append(path, []byte("two\n"), 0o644); err != nil {
				t.Fatalf("Append (extend): %v", err)
			}
			got, err := ws.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "one\ntwo\n" {
				t.Errorf("content = %q; want %q", got, "one\ntwo\n")
			}
			if err := ws.Materialize(dir); err != nil {
				t.Fatal(err)
			}
			disk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(disk) != "one\ntwo\n" {
				t.Errorf("materialized content = %q; want %q", disk, "one\ntwo\n")
			}
		})
	}
}

func TestMemAppendHoistsDiskFile(t *testing.T) {
	m := NewMem()
	dir := t.TempDir()
	path := filepath.Join(dir, "journal")
	if err := os.WriteFile(path, []byte("disk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(path, []byte("mem\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "disk\nmem\n" {
		t.Errorf("content = %q; want %q", got, "disk\nmem\n")
	}
	// Hoisting must shadow the real file until Materialize overwrites it.
	disk, _ := os.ReadFile(path)
	if string(disk) != "disk\n" {
		t.Errorf("pre-materialize disk = %q; want untouched %q", disk, "disk\n")
	}
	if err := m.Materialize(dir); err != nil {
		t.Fatal(err)
	}
	disk, _ = os.ReadFile(path)
	if string(disk) != "disk\nmem\n" {
		t.Errorf("post-materialize disk = %q; want %q", disk, "disk\nmem\n")
	}
}

func TestMemAppendAfterRemoveStartsEmpty(t *testing.T) {
	m := NewMem()
	dir := t.TempDir()
	path := filepath.Join(dir, "journal")
	if err := os.WriteFile(path, []byte("stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(path); err != nil {
		t.Fatal(err)
	}
	// The tombstoned disk bytes must not resurface through Append.
	if err := m.Append(path, []byte("fresh\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "fresh\n" {
		t.Errorf("content = %q; want %q", got, "fresh\n")
	}
	if err := m.Materialize(dir); err != nil {
		t.Fatal(err)
	}
	disk, _ := os.ReadFile(path)
	if string(disk) != "fresh\n" {
		t.Errorf("materialized = %q; want %q", disk, "fresh\n")
	}
}

func TestSumHashesContentOnBothBackends(t *testing.T) {
	dir := t.TempDir()
	want := sha256.Sum256([]byte("same bytes"))
	backends := map[string]Workspace{"fs": OS{}, "mem": NewMem()}
	for name, ws := range backends {
		a, b := filepath.Join(dir, name+"-a"), filepath.Join(dir, name+"-b")
		// Two separate writes of equal bytes: on mem they get different
		// write sequence numbers, which must not leak into the sum.
		for _, p := range []string{a, b} {
			if err := ws.WriteFile(p, []byte("same bytes"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range []string{a, b} {
			if sum, size, ok := ws.Sum(p); !ok || sum != want || size != int64(len("same bytes")) {
				t.Errorf("%s: Sum(%s) = %x, %d, %v", name, filepath.Base(p), sum, size, ok)
			}
		}
		if err := ws.WriteFile(a, []byte("same bytez"), 0o644); err != nil {
			t.Fatal(err)
		}
		if sum, _, _ := ws.Sum(a); sum == want {
			t.Errorf("%s: same-size rewrite kept the sum", name)
		}
		if _, _, ok := ws.Sum(filepath.Join(dir, name+"-absent")); ok {
			t.Errorf("%s: Sum of an absent path reported ok", name)
		}
		if _, _, ok := ws.Sum(dir); ok {
			t.Errorf("%s: Sum of a directory reported ok", name)
		}
	}
}

// TestOSLinkAndRenameDropStaleMemo edits a file in place behind the
// workspace, then links and renames it: the memoized sum of the old bytes
// must not be carried to the new names.
func TestOSLinkAndRenameDropStaleMemo(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	if err := (OS{}).WriteFile(src, []byte("old bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(src, []byte("new bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Move mtime explicitly so the edit shows in the stat fingerprint even
	// within one timestamp tick.
	later := time.Now().Add(time.Second)
	if err := os.Chtimes(src, later, later); err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256([]byte("new bytes"))
	linked := filepath.Join(dir, "linked")
	if err := (OS{}).Link(src, linked); err != nil {
		t.Fatal(err)
	}
	if sum, _, _ := (OS{}).Sum(linked); sum != want {
		t.Error("Link carried a stale sum")
	}
	if err := (OS{}).WriteFile(src, []byte("old bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(src, []byte("new bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(src, later.Add(time.Second), later.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	moved := filepath.Join(dir, "moved")
	if err := (OS{}).Rename(src, moved); err != nil {
		t.Fatal(err)
	}
	if sum, _, _ := (OS{}).Sum(moved); sum != want {
		t.Error("Rename carried a stale sum")
	}
}
