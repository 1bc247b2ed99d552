package dsp

import (
	"math/rand"
	"sync"
	"testing"
)

// cached reports whether the table cache holds (n, inverse).
func cached(n int, inverse bool) bool {
	c := &bluesteinTabs
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.mru {
		if t.key == (bluesteinKey{n, inverse}) {
			return true
		}
	}
	return false
}

// identicalSpectra reports whether a and b are bit-identical.
func identicalSpectra(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBluesteinCacheEvictionIsInvisible transforms one length, evicts its
// table with bluesteinCap+1 other lengths, and transforms it again: the
// rebuilt table must give the same bits as the cached one and as an empty
// cache's, and all of them must match the naive DFT.
func TestBluesteinCacheEvictionIsInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 243
	x := randComplex(rng, n)
	first := FFT(x)
	if !cached(n, false) {
		t.Fatalf("length %d not cached after a transform", n)
	}
	for k := 0; k <= bluesteinCap; k++ {
		FFT(randComplex(rng, 300+2*k+1))
	}
	if cached(n, false) {
		t.Fatalf("length %d still cached after %d other lengths (cap %d)", n, bluesteinCap+1, bluesteinCap)
	}
	if c := len(bluesteinTabs.mru); c > bluesteinCap {
		t.Fatalf("cache holds %d tables, cap %d", c, bluesteinCap)
	}
	again := FFT(x)
	if !identicalSpectra(first, again) {
		t.Error("transform after eviction differs from the cached-table transform")
	}
	bluesteinTabs.mu.Lock()
	bluesteinTabs.mru = nil // every table built from scratch
	bluesteinTabs.mu.Unlock()
	if fresh := FFT(x); !identicalSpectra(first, fresh) {
		t.Error("cached-table transform differs from a freshly built table's")
	}
	if e := maxErr(again, naiveDFT(x)); e > 1e-8*float64(n) {
		t.Errorf("max error %g vs naive DFT", e)
	}
}

// TestBluesteinCacheConcurrent runs transforms of more distinct lengths than
// the cache holds from several goroutines at once, forward and inverse, so
// lookups, builds and evictions interleave (run under -race); every result
// must equal the serial transform bit for bit.
func TestBluesteinCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lengths := make([]int, 2*bluesteinCap+3)
	inputs := make([][]complex128, len(lengths))
	want := make([][]complex128, len(lengths))
	for i := range lengths {
		lengths[i] = 101 + 6*i
		inputs[i] = randComplex(rng, lengths[i])
		want[i] = FFT(inputs[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(lengths))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range lengths {
				i := (k + 3*g) % len(lengths)
				if got := FFT(inputs[i]); !identicalSpectra(got, want[i]) {
					errs <- "forward"
				}
				if back := IFFT(want[i]); maxErr(back, inputs[i]) > 1e-9*float64(lengths[i]) {
					errs <- "inverse"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent %s transform differs from the serial one", e)
	}
	if c := len(bluesteinTabs.mru); c > bluesteinCap {
		t.Errorf("cache holds %d tables, cap %d", c, bluesteinCap)
	}
}
