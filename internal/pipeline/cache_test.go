package pipeline

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"accelproc/internal/dsp"
	"accelproc/internal/obs"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
)

// TestArtifactCacheAblationProducesIdenticalOutputs is the tentpole
// invariant of the artifact store: with the cache on (default) and off
// (Cache.Mode = CacheOff), every variant writes byte-identical product files.
func TestArtifactCacheAblationProducesIdenticalOutputs(t *testing.T) {
	ev := testEvent(t)
	for _, v := range Variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			opts := testOptions()
			dirRef, _ := runVariant(t, ev, v, opts)
			ref := productHashes(t, dirRef)

			opts.Cache.Mode = CacheOff
			dir, _ := runVariant(t, ev, v, opts)
			got := productHashes(t, dir)
			if len(got) != len(ref) {
				t.Errorf("product count %d, want %d", len(got), len(ref))
			}
			for name, h := range ref {
				if got[name] != h {
					t.Errorf("product %s differs with the artifact cache disabled", name)
				}
			}
		})
	}
}

// TestArtifactCacheCounters asserts the cache is actually doing work on a
// healthy run — hits, misses, decode bytes saved, and hardlinked staging
// copies all observed — and that the ablation flag really disables it.
func TestArtifactCacheCounters(t *testing.T) {
	ev := testEvent(t)
	opts := testOptions()
	opts.Observer = obs.New()
	_, _ = runVariant(t, ev, FullParallel, opts)
	o := opts.Observer
	if v := o.Counter("cache_hits_total").Value(); v <= 0 {
		t.Errorf("cache_hits_total = %v, want > 0", v)
	}
	if v := o.Counter("cache_misses_total").Value(); v <= 0 {
		t.Errorf("cache_misses_total = %v, want > 0", v)
	}
	if v := o.Counter("cache_bytes_saved_total").Value(); v <= 0 {
		t.Errorf("cache_bytes_saved_total = %v, want > 0", v)
	}
	if v := o.Counter("links_total").Value(); v <= 0 {
		t.Errorf("links_total = %v, want > 0 (hardlink staging on the plain filesystem)", v)
	}

	uncached := testOptions()
	uncached.Cache.Mode = CacheOff
	uncached.Observer = obs.New()
	_, _ = runVariant(t, ev, FullParallel, uncached)
	if v := uncached.Observer.Counter("cache_hits_total").Value(); v != 0 {
		t.Errorf("cache_hits_total = %v with the cache disabled, want 0", v)
	}
	if v := uncached.Observer.Counter("cache_misses_total").Value(); v != 0 {
		t.Errorf("cache_misses_total = %v with the cache disabled, want 0", v)
	}
}

// TestCacheHandlesDetectExternalMutation drives the codec handles directly:
// a value cached by writeV2 must not be served after the file changes on
// disk behind the store.
func TestCacheHandlesDetectExternalMutation(t *testing.T) {
	s, err := newState(context.Background(), t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.fail(nil)

	rng := rand.New(rand.NewSource(31))
	mkV2 := func(n int) smformat.V2 {
		data := func() []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = rng.NormFloat64()
			}
			return out
		}
		return smformat.V2{
			Station:   "SS01",
			Component: seismic.Longitudinal,
			DT:        0.01,
			Filter:    dsp.BandPassSpec{FSL: 0.1, FPL: 0.25, FPH: 23, FSH: 25},
			Accel:     data(), Vel: data(), Disp: data(),
		}
	}

	path := s.path(smformat.V2FileName("SS01", seismic.Longitudinal))
	first := mkV2(8)
	if err := s.writeV2(path, first); err != nil {
		t.Fatal(err)
	}
	got, err := s.readV2(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, first) {
		t.Fatal("cached read does not match the written value")
	}

	// Replace the file behind the store with a different record.
	second := mkV2(12)
	if err := smformat.WriteV2File(path, second); err != nil {
		t.Fatal(err)
	}
	got, err = s.readV2(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, second) {
		t.Error("stale cache entry served after the file changed on disk")
	}
}

// TestFilterParamsHandleCopiesMap pins the one aliasing exception: the map
// inside a cached FilterParams must be private to each reader, because
// process #10 mutates it in place between read and write.
func TestFilterParamsHandleCopiesMap(t *testing.T) {
	s, err := newState(context.Background(), t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.fail(nil)

	path := s.path(smformat.FilterParamsFile)
	params := smformat.FilterParams{
		Default:   dsp.BandPassSpec{FSL: 0.1, FPL: 0.25, FPH: 23, FSH: 25},
		PerSignal: map[smformat.SignalKey]dsp.BandPassSpec{},
	}
	if err := s.writeFilterParams(path, params); err != nil {
		t.Fatal(err)
	}
	a, err := s.readFilterParams(path)
	if err != nil {
		t.Fatal(err)
	}
	key := smformat.SignalKey{Station: "SS01", Component: seismic.Longitudinal}
	a.PerSignal[key] = dsp.BandPassSpec{FSL: 1, FPL: 2, FPH: 3, FSH: 4}

	b, err := s.readFilterParams(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, leaked := b.PerSignal[key]; leaked {
		t.Error("mutation of one reader's PerSignal map leaked into the cached value")
	}
}
