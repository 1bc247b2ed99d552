package faults

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// decisions replays seq through a fresh injector and returns the kinds.
func decisions(cfg Config, seq []Site) []Kind {
	in := NewInjector(cfg)
	out := make([]Kind, len(seq))
	for i, s := range seq {
		out[i] = in.Decide(s)
	}
	return out
}

func sampleSites() []Site {
	var seq []Site
	for _, st := range []string{"SS01", "SS02", "SS03"} {
		for _, op := range []string{"mkdir", "move", "write", "exec"} {
			for a := 0; a < 4; a++ {
				seq = append(seq, Site{Stage: "def", Record: st, Op: op, Path: st + ".v1"})
			}
		}
	}
	return seq
}

func TestInjectorIsDeterministicBySeed(t *testing.T) {
	seq := sampleSites()
	cfg := Config{Seed: 42, Rate: 0.5}
	a := decisions(cfg, seq)
	b := decisions(cfg, seq)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical injectors: %v vs %v", i, a[i], b[i])
		}
	}
	c := decisions(Config{Seed: 43, Rate: 0.5}, seq)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical decision sequences")
	}
}

func TestInjectorRateZeroNeverFires(t *testing.T) {
	for _, k := range decisions(Config{Seed: 7, Rate: 0}, sampleSites()) {
		if k != KindNone {
			t.Fatalf("rate 0 injected %v", k)
		}
	}
}

func TestInjectorRateIsApproximatelyHonored(t *testing.T) {
	in := NewInjector(Config{Seed: 3, Rate: 0.2})
	n := 4000
	for i := 0; i < n; i++ {
		in.Decide(Site{Stage: "def", Record: "SS01", Op: "move", Path: "f"})
	}
	got := float64(in.Injected()) / float64(n)
	if got < 0.15 || got > 0.25 {
		t.Errorf("empirical fault rate %.3f, want ~0.2", got)
	}
}

func TestInjectorSparesEventScopedSites(t *testing.T) {
	in := NewInjector(Config{Seed: 5, Rate: 1.0})
	for i := 0; i < 100; i++ {
		if k := in.Decide(Site{Stage: "def", Op: "write", Path: "_filter.exe"}); k != KindNone {
			t.Fatalf("record-less site injected %v at rate 1.0", k)
		}
	}
}

func TestRulesTargetAndCount(t *testing.T) {
	in := NewInjector(Config{Seed: 1, Rules: []Rule{
		{Stage: "cor", Record: "SS02", Op: "move", Kind: KindPermanent, Count: 2},
	}})
	hit := Site{Stage: "cor", Record: "SS02", Op: "move", Path: "SS02L.v2"}
	miss := []Site{
		{Stage: "def", Record: "SS02", Op: "move", Path: "x"},
		{Stage: "cor", Record: "SS01", Op: "move", Path: "x"},
		{Stage: "cor", Record: "SS02", Op: "write", Path: "x"},
	}
	if k := in.Decide(hit); k != KindPermanent {
		t.Errorf("first match = %v, want permanent", k)
	}
	for _, s := range miss {
		if k := in.Decide(s); k != KindNone {
			t.Errorf("non-matching site %v injected %v", s, k)
		}
	}
	if k := in.Decide(hit); k != KindPermanent {
		t.Errorf("second match = %v, want permanent", k)
	}
	if k := in.Decide(hit); k != KindNone {
		t.Errorf("rule fired beyond its count: %v", k)
	}
	if got := in.Injected(); got != 2 {
		t.Errorf("Injected() = %d, want 2", got)
	}
	if c := in.Counts(); c[KindPermanent] != 2 {
		t.Errorf("Counts()[permanent] = %d, want 2", c[KindPermanent])
	}
}

func TestNormalizeDowngradesImpossibleKinds(t *testing.T) {
	in := NewInjector(Config{Seed: 1, Rules: []Rule{
		{Op: "move", Kind: KindTruncate},
		{Op: "read", Kind: KindCrash},
	}})
	if k := in.Decide(Site{Record: "SS01", Op: "move", Path: "x"}); k != KindTransient {
		t.Errorf("truncate on move = %v, want transient", k)
	}
	if k := in.Decide(Site{Record: "SS01", Op: "read", Path: "x"}); k != KindTransient {
		t.Errorf("crash on read = %v, want transient", k)
	}
}

func TestNilInjectorAndChaosAreSafe(t *testing.T) {
	var in *Injector
	if k := in.Decide(Site{Record: "SS01", Op: "move"}); k != KindNone {
		t.Errorf("nil injector decided %v", k)
	}
	if in.Injected() != 0 || in.Counts() != nil {
		t.Error("nil injector reported activity")
	}
	var c *Chaos
	if c.Injected() != 0 {
		t.Error("nil chaos reported injections")
	}
	if err := c.Exec("def", "SS01"); err != nil {
		t.Errorf("nil chaos exec failed: %v", err)
	}
	if _, ok := c.At("def", "SS01").(OS); !ok {
		t.Error("nil chaos did not hand out the plain OS filesystem")
	}
}

func TestChaosFSInjectsSentinels(t *testing.T) {
	dir := t.TempDir()
	mk := func(rules ...Rule) FS {
		return NewChaos(NewInjector(Config{Seed: 1, Rules: rules}), OS{}, nil).At("def", "SS01")
	}

	f := mk(Rule{Op: "read", Kind: KindTransient, Count: 1})
	if _, err := f.ReadFile(filepath.Join(dir, "absent")); !errors.Is(err, ErrTransient) {
		t.Errorf("read fault = %v, want ErrTransient", err)
	}
	// The injected failure is pre-op: the next attempt reaches the real
	// filesystem (and fails with its genuine not-exist error).
	if _, err := f.ReadFile(filepath.Join(dir, "absent")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("second read = %v, want the real fs.ErrNotExist", err)
	}

	f = mk(Rule{Op: "exec", Kind: KindCrash})
	c := NewChaos(NewInjector(Config{Seed: 1, Rules: []Rule{{Op: "exec", Kind: KindCrash}}}), OS{}, nil)
	if err := c.Exec("def", "SS01"); !errors.Is(err, ErrCrash) {
		t.Errorf("exec fault = %v, want ErrCrash", err)
	}

	f = mk(Rule{Op: "move", Kind: KindPermanent})
	if err := f.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); !errors.Is(err, ErrPermanent) {
		t.Errorf("move fault = %v, want ErrPermanent", err)
	}
}

func TestChaosWriteTruncates(t *testing.T) {
	dir := t.TempDir()
	f := NewChaos(NewInjector(Config{Seed: 1, Rules: []Rule{
		{Op: "write", Kind: KindTruncate, Count: 1},
	}}), OS{}, nil).At("def", "SS01")
	payload := make([]byte, 4*truncatePoint)
	for i := range payload {
		payload[i] = byte(i)
	}
	path := filepath.Join(dir, "SS01L.v2")
	err := f.WriteFile(path, payload, 0o644)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncating write = %v, want ErrTruncated", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(got) != truncatePoint {
		t.Errorf("truncated file has %d bytes, want %d", len(got), truncatePoint)
	}
	// The retry overwrites the partial file completely.
	if err := f.WriteFile(path, payload, 0o644); err != nil {
		t.Fatalf("retried write failed: %v", err)
	}
	got, rerr = os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(got) != len(payload) {
		t.Errorf("retried file has %d bytes, want %d", len(got), len(payload))
	}
}

func TestChaosSlowDelaysViaSleeper(t *testing.T) {
	var slept time.Duration
	sleep := func(d time.Duration) error { slept += d; return nil }
	c := NewChaos(NewInjector(Config{Seed: 1, SlowDelay: 7 * time.Millisecond, Rules: []Rule{
		{Op: "stat", Kind: KindSlow, Count: 1},
	}}), OS{}, sleep)
	dir := t.TempDir()
	if _, err := c.At("def", "SS01").Stat(dir); err != nil {
		t.Fatalf("slow stat failed: %v", err)
	}
	if slept != 7*time.Millisecond {
		t.Errorf("slept %v, want 7ms", slept)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindNone: "none", KindTransient: "transient", KindPermanent: "permanent",
		KindSlow: "slow", KindTruncate: "truncate", KindCrash: "crash",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}
