package dsp

import (
	"fmt"
	"math/rand"
	"testing"
)

func randSignal(n int) []float64 {
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func BenchmarkFFTPow2(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(float64(i%7)-3, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FFT(x)
			}
		})
	}
}

func BenchmarkFFTBluestein(b *testing.B) {
	// Non-power-of-two sizes typical of real record lengths.
	for _, n := range []int{7300, 20000, 35000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(float64(i%11)-5, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FFT(x)
			}
		})
	}
}

func BenchmarkAmplitudeSpectrum(b *testing.B) {
	x := randSignal(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := AmplitudeSpectrum(x, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDesignBandPass(b *testing.B) {
	spec := BandPassSpec{FSL: 0.1, FPL: 0.25, FPH: 23, FSH: 25}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DesignBandPass(spec, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterApply(b *testing.B) {
	spec := BandPassSpec{FSL: 0.1, FPL: 0.25, FPH: 23, FSH: 25}
	fir, err := DesignBandPass(spec, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	// 505 and 1,930 are record lengths of the paper, ops and catalog
	// workloads, shorter than the filter, so every output is edge-clamped.
	for _, n := range []int{505, 1930, 7300, 20000} {
		n := n
		b.Run(fmt.Sprintf("n=%d/taps=%d", n, len(fir.Taps)), func(b *testing.B) {
			x := randSignal(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fir.Apply(x)
			}
		})
	}
}

func BenchmarkIntegrate(b *testing.B) {
	x := randSignal(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Integrate(x, 0.01)
	}
}

func BenchmarkDetrend(b *testing.B) {
	base := randSignal(20000)
	x := make([]float64, len(base))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(x, base)
		Detrend(x)
	}
}

// TestFFTSteadyStateAllocations pins the hot-path allocation contract: once
// the per-length Bluestein tables exist, transforms into caller-provided
// buffers allocate nothing (pow2 and chirp-z alike), and an amplitude
// spectrum allocates only its returned slice.
func TestFFTSteadyStateAllocations(t *testing.T) {
	x := randSignal(7300) // non-power-of-two: exercises the chirp-z path
	buf := make([]complex128, len(x))
	FFTRealInto(buf, x) // build the n=7300 tables and warm the scratch pool
	if n := testing.AllocsPerRun(20, func() { FFTRealInto(buf, x) }); n > 0 {
		t.Errorf("FFTRealInto (bluestein) allocates %v per run, want 0", n)
	}

	cx := make([]complex128, 2048)
	copy(cx, buf)
	dst := make([]complex128, len(cx))
	if n := testing.AllocsPerRun(20, func() { FFTInto(dst, cx) }); n > 0 {
		t.Errorf("FFTInto (radix-2) allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { IFFTInto(dst, cx) }); n > 0 {
		t.Errorf("IFFTInto (radix-2) allocates %v per run, want 0", n)
	}

	if n := testing.AllocsPerRun(20, func() {
		if _, _, err := AmplitudeSpectrum(x, 0.01); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("AmplitudeSpectrum allocates %v per run, want <= 1 (the result)", n)
	}
}

// TestFFTIntoMatchesFFT pins the caller-buffer variants to the allocating
// ones bit for bit, including aliasing dst == x.
func TestFFTIntoMatchesFFT(t *testing.T) {
	for _, n := range []int{64, 100, 7300} {
		sig := randSignal(n)
		x := make([]complex128, n)
		for i, v := range sig {
			x[i] = complex(v, 0)
		}
		want := FFT(x)
		dst := make([]complex128, n)
		FFTInto(dst, x)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: FFTInto[%d] = %v, want %v", n, i, dst[i], want[i])
			}
		}
		if got := FFTRealInto(make([]complex128, n), sig); got[1] != want[1] {
			t.Errorf("n=%d: FFTRealInto differs from FFT", n)
		}
		alias := append([]complex128(nil), x...)
		FFTInto(alias, alias)
		for i := range want {
			if alias[i] != want[i] {
				t.Fatalf("n=%d: aliased FFTInto[%d] = %v, want %v", n, i, alias[i], want[i])
			}
		}
		wantInv := IFFT(want)
		IFFTInto(dst, want)
		for i := range wantInv {
			if dst[i] != wantInv[i] {
				t.Fatalf("n=%d: IFFTInto[%d] = %v, want %v", n, i, dst[i], wantInv[i])
			}
		}
	}
}
