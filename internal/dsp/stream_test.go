package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// chunked invokes f over x in uneven chunks, exercising chunk-boundary
// bookkeeping.
func chunked(x []float64, sizes []int, f func([]float64)) {
	i := 0
	for _, sz := range sizes {
		if i >= len(x) {
			return
		}
		end := i + sz
		if end > len(x) {
			end = len(x)
		}
		f(x[i:end])
		i = end
	}
	for i < len(x) {
		end := i + 7
		if end > len(x) {
			end = len(x)
		}
		f(x[i:end])
		i = end
	}
}

func randomSignal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 50
	}
	return x
}

func TestMeanAccumMatchesDemean(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 1001} {
		x := randomSignal(n, int64(n))
		var acc MeanAccum
		chunked(x, []int{3, 11, 1}, func(c []float64) { acc.ObserveSlice(c) })
		work := append([]float64(nil), x...)
		want := Demean(work)
		if got := acc.Mean(); got != want {
			t.Errorf("n=%d: streamed mean %v != Demean's %v", n, got, want)
		}
	}
}

func TestTrendAccumMatchesDetrend(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 1001} {
		x := randomSignal(n, int64(n)+17)
		var acc TrendAccum
		for _, v := range x {
			acc.Observe(v)
		}
		work := append([]float64(nil), x...)
		wantC, wantS := Detrend(work)
		gotC, gotS := acc.Line()
		if gotC != wantC || gotS != wantS {
			t.Errorf("n=%d: streamed line (%v, %v) != Detrend's (%v, %v)", n, gotC, gotS, wantC, wantS)
		}
		// Removing the line sample by sample must match the in-place result.
		for i, v := range x {
			if got := v - (gotC + gotS*float64(i)); got != work[i] {
				t.Fatalf("n=%d sample %d: streamed removal %v != %v", n, i, got, work[i])
			}
		}
	}
}

func TestTaperMatchesCosineTaper(t *testing.T) {
	for _, n := range []int{1, 2, 9, 10, 100, 1001} {
		for _, frac := range []float64{-1, 0, 0.001, 0.05, 0.3, 0.5, 0.9} {
			x := randomSignal(n, int64(n)*1000+int64(frac*100))
			want := append([]float64(nil), x...)
			CosineTaper(want, frac)
			tp := NewTaper(n, frac)
			got := append([]float64(nil), x...)
			for i := range got {
				if w, ok := tp.Factor(i); ok {
					got[i] *= w
				}
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d frac=%g sample %d: streamed %v != batch %v", n, frac, i, got[i], want[i])
				}
			}
		}
	}
}

func TestStreamingFIRMatchesApply(t *testing.T) {
	specs := []BandPassSpec{
		{FSL: 0.10, FPL: 0.25, FPH: 23, FSH: 25},
		{FSL: 0.5, FPL: 2, FPH: 10, FSH: 20},
	}
	for _, spec := range specs {
		fir, err := DesignBandPass(spec, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		// Cover n < delay, n < taps, and n >> taps.
		for _, n := range []int{1, 5, fir.Delay() - 1, fir.Delay() + 1, len(fir.Taps) + 3, 3*len(fir.Taps) + 11} {
			if n < 1 {
				continue
			}
			x := randomSignal(n, int64(n)*7)
			want := fir.Apply(x)
			sf := NewStreamingFIR(fir, n)
			var got []float64
			chunked(x, []int{1, 13, 256, 5}, func(c []float64) { got = sf.Push(c, got) })
			got = sf.Finish(got)
			if len(got) != len(want) {
				t.Fatalf("spec %+v n=%d: streamed %d samples, want %d", spec, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("spec %+v n=%d sample %d: streamed %v != batch %v", spec, n, i, got[i], want[i])
				}
			}
		}
	}
}

// referenceFIR is the one-output-at-a-time direct form that Apply and
// StreamingFIR must reproduce bit for bit: out[i] sums taps[j]*x[i+delay-j]
// over the in-range taps in ascending j.
func referenceFIR(taps, x []float64) []float64 {
	n, m := len(x), len(taps)
	delay := (m - 1) / 2
	out := make([]float64, n)
	for i := range out {
		c := i + delay
		var acc float64
		for j := max(0, c-(n-1)); j <= min(m-1, c); j++ {
			acc += taps[j] * x[c-j]
		}
		out[i] = acc
	}
	return out
}

// streamFIR runs StreamingFIR over x in fixed-size chunks.
func streamFIR(fir *FIRFilter, x []float64, chunk int) []float64 {
	sf := NewStreamingFIR(fir, len(x))
	var out []float64
	for i := 0; i < len(x); i += chunk {
		out = sf.Push(x[i:min(i+chunk, len(x))], out)
	}
	return sf.Finish(out)
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s sample %d: %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestFIRKernelMatchesReference checks Apply and StreamingFIR against the
// reference loop in this file, not against each other (they share one
// kernel): random odd tap counts 1-121, every n from 1 to 300 (so n below
// the delay and below the tap count), several chunk schedules, and the
// longrec shape.
func TestFIRKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tapCounts := []int{1, 3, 5, 121}
	for range 8 {
		tapCounts = append(tapCounts, 2*rng.Intn(61)+1)
	}
	chunks := []int{1, 3, 13, 256, 8192}
	for _, m := range tapCounts {
		fir := &FIRFilter{Taps: randomSignal(m, int64(m))}
		for n := 1; n <= 300; n++ {
			x := randomSignal(n, int64(n*1000+m))
			want := referenceFIR(fir.Taps, x)
			sameBits(t, fmt.Sprintf("taps=%d n=%d Apply", m, n), fir.Apply(x), want)
			for _, c := range chunks {
				sameBits(t, fmt.Sprintf("taps=%d n=%d chunk=%d StreamingFIR", m, n, c), streamFIR(fir, x, c), want)
			}
		}
	}

	// The longrec workload's shape: 36,000 samples through 2,201 taps in
	// 8,192-sample chunks.
	fir, err := DesignBandPass(BandPassSpec{FSL: 0.1, FPL: 0.25, FPH: 23, FSH: 25}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(fir.Taps) != 2201 {
		t.Fatalf("longrec filter has %d taps, want 2201", len(fir.Taps))
	}
	x := randomSignal(36_000, 36)
	want := referenceFIR(fir.Taps, x)
	sameBits(t, "longrec Apply", fir.Apply(x), want)
	sameBits(t, "longrec StreamingFIR", streamFIR(fir, x, 8192), want)
}

func TestStreamingIntegratorMatchesIntegrate(t *testing.T) {
	x := randomSignal(4096, 99)
	const dt = 0.01
	want := Integrate(x, dt)
	g := NewStreamingIntegrator(dt)
	for i, v := range x {
		if got := g.Next(v); got != want[i] {
			t.Fatalf("sample %d: streamed integral %v != batch %v", i, got, want[i])
		}
	}
}

func TestPeakTrackerMatchesAbsMax(t *testing.T) {
	cases := [][]float64{
		nil,
		{0},
		{-3, 3},
		{3, -3},
		randomSignal(1000, 5),
		{math.NaN(), 1, 2},
	}
	for ci, x := range cases {
		wantPeak, wantIdx := AbsMax(x)
		var tr PeakTracker
		for i, v := range x {
			tr.Observe(i, v)
		}
		gotPeak, gotIdx := tr.Peak()
		same := gotIdx == wantIdx &&
			(gotPeak == wantPeak || (math.IsNaN(gotPeak) && math.IsNaN(wantPeak)))
		if !same {
			t.Errorf("case %d: streamed peak (%v, %d) != batch (%v, %d)", ci, gotPeak, gotIdx, wantPeak, wantIdx)
		}
	}
}

// TestStreamedBandPassPipeline chains the streaming kernels exactly as the
// streamed filter body does — mean pass, taper+FIR pass, detrend-removal
// pass — and checks the result against the batch BandPass + Detrend chain.
func TestStreamedBandPassPipeline(t *testing.T) {
	const dt = 0.005
	spec := BandPassSpec{FSL: 0.10, FPL: 0.25, FPH: 23, FSH: 25}
	const taperFraction = 0.05
	for _, n := range []int{64, 1000, 9000} {
		x := randomSignal(n, int64(n)+123)

		// Batch reference: BandPass (demean, taper, FIR) then Detrend.
		want, err := BandPass(x, dt, spec, taperFraction)
		if err != nil {
			t.Fatal(err)
		}
		Detrend(want)

		// Streamed: pass A (mean), pass B (taper+FIR+trend sums), pass C
		// (line removal).
		fir, err := DesignBandPass(spec, dt)
		if err != nil {
			t.Fatal(err)
		}
		var mean MeanAccum
		mean.ObserveSlice(x)
		mu := mean.Mean()
		tp := NewTaper(n, taperFraction)
		sf2 := NewStreamingFIR(fir, n)
		var trend2 TrendAccum
		out := make([]float64, 0, n)
		pos := 0
		buf := make([]float64, 0, 1024)
		chunked(x, []int{17, 1024}, func(c []float64) {
			buf = buf[:0]
			for _, v := range c {
				y := v - mu
				if w, ok := tp.Factor(pos); ok {
					y *= w
				}
				buf = append(buf, y)
				pos++
			}
			out = sf2.Push(buf, out)
		})
		out = sf2.Finish(out)
		for _, y := range out {
			trend2.Observe(y)
		}
		c0, c1 := trend2.Line()
		for i := range out {
			out[i] -= c0 + c1*float64(i)
		}
		if len(out) != len(want) {
			t.Fatalf("n=%d: streamed %d samples, want %d", n, len(out), len(want))
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("n=%d sample %d: streamed %v != batch %v", n, i, out[i], want[i])
			}
		}
	}
}
