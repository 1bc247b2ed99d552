package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"weak"

	"accelproc/internal/artifact"
	"accelproc/internal/dataflow"
)

// captureStates makes newStateHook hand every run state of the test to see.
func captureStates(t *testing.T, see func(*state)) {
	t.Helper()
	newStateHook = see
	t.Cleanup(func() { newStateHook = nil })
}

// memoLookups are the test event's memo lookups and footprint at Workers 1,
// by variant and temp-folder mode.  The hits and misses are those measured
// before the memo released entries after their last reader: releasing an
// entry no node reads again must not change the outcome of a single lookup.
// The footprint is a byte count of one serial schedule, so it is pinned
// exactly.
var memoLookups = []struct {
	v            Variant
	noTemp       bool
	hits, misses int64
	// The memo's peak footprint (MemoPeakBytes), with every entry kept to
	// the end of the run and with the release.
	keptPeak, peak int64
}{
	{SeqOriginal, false, 105, 3, 1734613, 1718190},
	{SeqOriginal, true, 105, 3, 1734613, 1718190},
	{SeqOptimized, false, 93, 3, 1734613, 1453054},
	{SeqOptimized, true, 93, 3, 1734613, 1453054},
	{PartialParallel, false, 93, 3, 1734613, 1453981},
	{PartialParallel, true, 93, 3, 1734613, 1453981},
	{FullParallel, false, 97, 3, 2044966, 1779830},
	{FullParallel, true, 93, 3, 1734613, 1453981},
	{Pipelined, false, 97, 3, 2042840, 1777704},
	{Pipelined, true, 93, 3, 1734613, 1453981},
}

// TestMemoReleasesAfterLastReader checks the memo's liveness release on
// every variant, with temp folders on and off: the lookups' outcomes are
// unchanged, the drained graph leaves the memo empty, the footprint is the
// pinned one, and the products are byte-identical to a run without the
// memo.
func TestMemoReleasesAfterLastReader(t *testing.T) {
	ev := testEvent(t)
	for _, tc := range memoLookups {
		t.Run(fmt.Sprintf("%v/noTemp=%v", tc.v, tc.noTemp), func(t *testing.T) {
			var arts *artifact.Store
			captureStates(t, func(s *state) { arts = s.arts })
			opts := testOptions()
			opts.NoTempFolders, opts.Workers = tc.noTemp, 1
			dir, res := runVariant(t, ev, tc.v, opts)
			if res.Cache.MemoHits != tc.hits || res.Cache.MemoMisses != tc.misses {
				t.Errorf("memo hits/misses = %d/%d, want %d/%d",
					res.Cache.MemoHits, res.Cache.MemoMisses, tc.hits, tc.misses)
			}
			if n := arts.Len(); n != 0 {
				t.Errorf("memo holds %d entries after the last node, want 0", n)
			}
			if p := res.Cache.MemoPeakBytes; p != tc.peak {
				t.Errorf("MemoPeakBytes = %d, want %d (%d with every entry kept)", p, tc.peak, tc.keptPeak)
			}

			opts.Cache.Mode = CacheOff
			newStateHook = nil
			ref, _ := runVariant(t, ev, tc.v, opts)
			want, got := productHashes(t, ref), productHashes(t, dir)
			if len(got) != len(want) {
				t.Errorf("product count %d, want %d", len(got), len(want))
			}
			for name, h := range want {
				if got[name] != h {
					t.Errorf("product %s differs from the memo-off run", name)
				}
			}
		})
	}
}

// TestMemoReleaseUnderParallelWorkers runs the two schedules without
// barriers between a record's readers, Pipelined and FullParallel, on a
// pool, where readers of one path complete concurrently: the lookups and
// the empty memo at the end must match the serial runs'.
func TestMemoReleaseUnderParallelWorkers(t *testing.T) {
	ev := testEvent(t)
	for _, v := range []Variant{FullParallel, Pipelined} {
		t.Run(v.String(), func(t *testing.T) {
			var arts *artifact.Store
			captureStates(t, func(s *state) { arts = s.arts })
			opts := testOptions()
			opts.Workers = 4
			_, res := runVariant(t, ev, v, opts)
			if res.Cache.MemoHits != 97 || res.Cache.MemoMisses != 3 {
				t.Errorf("memo hits/misses = %d/%d, want 97/3", res.Cache.MemoHits, res.Cache.MemoMisses)
			}
			if n := arts.Len(); n != 0 {
				t.Errorf("memo holds %d entries after the last node, want 0", n)
			}
		})
	}
}

// watchRelease returns a newStateHook that takes a weak pointer to the
// first directory's memo when its run starts and, when the third
// directory's run starts, forces a collection and records whether that memo
// is still reachable.
func watchRelease(dirs []string, checked, alive *bool) func(*state) {
	var first weak.Pointer[artifact.Store]
	return func(s *state) {
		switch s.dir {
		case dirs[0]:
			first = weak.Make(s.arts)
		case dirs[2]:
			runtime.GC()
			*checked, *alive = true, first.Value() != nil
		}
	}
}

// TestRunFleetReleasesFinishedEvents checks that a fleet keeps nothing of a
// finished event: when the third event builds, after the first one's Finish
// returned, the first event's memo must be unreachable.
func TestRunFleetReleasesFinishedEvents(t *testing.T) {
	for _, tc := range []struct {
		name           string
		workers, admit int
	}{
		{"one worker", 1, 0}, // Balanced drains the oldest event first
		{"admit one", 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dirs := prepareBatchDirs(t, 3)
			var checked, alive bool
			captureStates(t, watchRelease(dirs, &checked, &alive))
			opts := fleetOptions(dataflow.Balanced)
			opts.Workers, opts.Admit, opts.Journal = tc.workers, tc.admit, true
			if _, err := RunFleet(context.Background(), dirs, opts); err != nil {
				t.Fatal(err)
			}
			if !checked {
				t.Fatal("the third event never built")
			}
			if alive {
				t.Error("the first event's memo is still reachable while the third event builds")
			}
		})
	}
}

// TestRunBatchReleasesFinishedEvents is the same check for RunBatch running
// one event at a time.
func TestRunBatchReleasesFinishedEvents(t *testing.T) {
	dirs := prepareBatchDirs(t, 3)
	var checked, alive bool
	captureStates(t, watchRelease(dirs, &checked, &alive))
	if _, err := RunBatch(context.Background(), dirs, Pipelined, batchOptions(1)); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("the third event never ran")
	}
	if alive {
		t.Error("the first event's memo is still reachable while the third event runs")
	}
}
