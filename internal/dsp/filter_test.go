package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func defaultSpec() BandPassSpec {
	return BandPassSpec{FSL: 0.1, FPL: 0.25, FPH: 23, FSH: 25}
}

func TestBandPassSpecValidate(t *testing.T) {
	dt := 0.01
	if err := defaultSpec().Validate(dt); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []BandPassSpec{
		{FSL: 0.3, FPL: 0.25, FPH: 23, FSH: 25},  // FSL >= FPL
		{FSL: -0.1, FPL: 0.25, FPH: 23, FSH: 25}, // negative FSL
		{FSL: 0.1, FPL: 24, FPH: 23, FSH: 25},    // FPL >= FPH
		{FSL: 0.1, FPL: 0.25, FPH: 26, FSH: 25},  // FPH >= FSH
		{FSL: 0.1, FPL: 0.25, FPH: 23, FSH: 80},  // FSH > Nyquist
	}
	for i, s := range bad {
		if err := s.Validate(dt); err == nil {
			t.Errorf("case %d: invalid spec %+v accepted", i, s)
		}
	}
	if err := defaultSpec().Validate(0); err == nil {
		t.Error("dt=0 accepted")
	}
}

func TestDesignBandPassFrequencyResponse(t *testing.T) {
	dt := 0.01 // 100 Hz sampling
	spec := defaultSpec()
	fir, err := DesignBandPass(spec, dt)
	if err != nil {
		t.Fatal(err)
	}
	if len(fir.Taps)%2 != 1 {
		t.Fatalf("tap count %d is even", len(fir.Taps))
	}
	// Pass band: response near 1.
	for _, f := range []float64{0.5, 1, 5, 10, 20} {
		if r := fir.Response(f, dt); math.Abs(r-1) > 0.05 {
			t.Errorf("pass band response at %g Hz = %g, want ~1", f, r)
		}
	}
	// Stop bands: response near 0.  The Hamming window gives ~53 dB
	// attenuation; 0.01 (40 dB) is a conservative bound.
	for _, f := range []float64{0.02, 0.05, 30, 45} {
		if r := fir.Response(f, dt); r > 0.01 {
			t.Errorf("stop band response at %g Hz = %g, want ~0", f, r)
		}
	}
}

func TestDesignBandPassRejectsInvalid(t *testing.T) {
	if _, err := DesignBandPass(BandPassSpec{}, 0.01); err == nil {
		t.Error("zero spec accepted")
	}
}

func TestFilterRemovesOutOfBandSine(t *testing.T) {
	dt := 0.01
	n := 8192
	inBand := make([]float64, n)   // 5 Hz, in the pass band
	outBand := make([]float64, n)  // 0.03 Hz, below FSL
	combined := make([]float64, n) // sum
	for i := 0; i < n; i++ {
		ti := float64(i) * dt
		inBand[i] = math.Sin(2 * math.Pi * 5 * ti)
		outBand[i] = 3 * math.Sin(2*math.Pi*0.03*ti)
		combined[i] = inBand[i] + outBand[i]
	}
	fir, err := DesignBandPass(defaultSpec(), dt)
	if err != nil {
		t.Fatal(err)
	}
	got := fir.Apply(combined)
	// Compare against the in-band component over the central region
	// (edges suffer from truncation since the drift is not tapered here).
	delay := fir.Delay()
	var rms, ref float64
	count := 0
	for i := 2 * delay; i < n-2*delay; i++ {
		d := got[i] - inBand[i]
		rms += d * d
		ref += inBand[i] * inBand[i]
		count++
	}
	if count == 0 {
		t.Fatal("record shorter than filter transients")
	}
	rms = math.Sqrt(rms / float64(count))
	ref = math.Sqrt(ref / float64(count))
	if rms > 0.05*ref {
		t.Errorf("residual RMS %g vs signal RMS %g: drift not removed", rms, ref)
	}
}

func TestApplyPreservesLengthAndAlignment(t *testing.T) {
	dt := 0.01
	fir, err := DesignBandPass(defaultSpec(), dt)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 10, 100, 5000} {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(2 * math.Pi * 2 * float64(i) * dt)
		}
		y := fir.Apply(x)
		if len(y) != n {
			t.Errorf("n=%d: output length %d", n, len(y))
		}
	}
	// Alignment: a pass-band burst must peak at (approximately) the same
	// sample after filtering, thanks to group-delay compensation.
	n := 4096
	x := make([]float64, n)
	for i := range x {
		ti := float64(i-n/2) * dt
		x[i] = math.Exp(-ti*ti/2) * math.Sin(2*math.Pi*5*float64(i)*dt)
	}
	_, wantIdx := AbsMax(x)
	_, gotIdx := AbsMax(fir.Apply(x))
	if d := gotIdx - wantIdx; d < -3 || d > 3 {
		t.Errorf("peak moved from %d to %d; group delay not compensated", wantIdx, gotIdx)
	}
}

func TestBandPassEndToEnd(t *testing.T) {
	dt := 0.005
	n := 8192
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) * dt
		x[i] = math.Sin(2*math.Pi*3*ti) + 0.5 + 0.01*ti // signal + offset + drift
	}
	y, err := BandPass(x, dt, defaultSpec(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != n {
		t.Fatalf("length %d, want %d", len(y), n)
	}
	// The offset and drift are out of band; mean of output ~ 0.
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)
	if math.Abs(mean) > 0.01 {
		t.Errorf("output mean %g, want ~0 after band-pass", mean)
	}
}

func TestBandPassPropagatesDesignError(t *testing.T) {
	if _, err := BandPass([]float64{1, 2}, 0.01, BandPassSpec{FSL: 5, FPL: 1, FPH: 10, FSH: 20}, 0.05); err == nil {
		t.Error("invalid spec not rejected")
	}
}

// Property: filtering is linear — Apply(a*x+y) == a*Apply(x)+Apply(y).
func TestFilterLinearity(t *testing.T) {
	dt := 0.01
	fir, err := DesignBandPass(defaultSpec(), dt)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, aRaw int8) bool {
		a := float64(aRaw) / 16
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(200)
		x := make([]float64, n)
		y := make([]float64, n)
		comb := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
			comb[i] = a*x[i] + y[i]
		}
		lhs := fir.Apply(comb)
		fx, fy := fir.Apply(x), fir.Apply(y)
		for i := range lhs {
			if math.Abs(lhs[i]-(a*fx[i]+fy[i])) > 1e-9*(math.Abs(a)+1)*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHammingWindow(t *testing.T) {
	if HammingWindow(0) != nil {
		t.Error("HammingWindow(0) != nil")
	}
	if w := HammingWindow(1); len(w) != 1 || w[0] != 1 {
		t.Errorf("HammingWindow(1) = %v", w)
	}
	w := HammingWindow(11)
	// Symmetric, peak 1 at center, ends at 0.08.
	for i := range w {
		if math.Abs(w[i]-w[len(w)-1-i]) > 1e-15 {
			t.Errorf("asymmetry at %d", i)
		}
	}
	if math.Abs(w[5]-1) > 1e-12 {
		t.Errorf("center = %g, want 1", w[5])
	}
	if math.Abs(w[0]-0.08) > 1e-12 {
		t.Errorf("end = %g, want 0.08", w[0])
	}
}

func TestHannWindow(t *testing.T) {
	if HannWindow(0) != nil {
		t.Error("HannWindow(0) != nil")
	}
	if w := HannWindow(1); len(w) != 1 || w[0] != 1 {
		t.Errorf("HannWindow(1) = %v", w)
	}
	w := HannWindow(9)
	if w[0] != 0 || w[8] != 0 {
		t.Errorf("ends = %g, %g, want 0", w[0], w[8])
	}
	if math.Abs(w[4]-1) > 1e-12 {
		t.Errorf("center = %g, want 1", w[4])
	}
}

func TestApplyWindowPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	ApplyWindow(make([]float64, 3), make([]float64, 4))
}

func TestApplyWindow(t *testing.T) {
	x := []float64{1, 2, 3}
	ApplyWindow(x, []float64{2, 0.5, -1})
	want := []float64{2, 1, -3}
	for i := range x {
		if x[i] != want[i] {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestCosineTaper(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 1
	}
	CosineTaper(x, 0.1)
	if x[0] != 0 {
		t.Errorf("x[0] = %g, want 0", x[0])
	}
	if x[50] != 1 {
		t.Errorf("x[50] = %g, want 1 (untapered middle)", x[50])
	}
	// Monotonic ramp on the leading taper.
	for i := 1; i < 10; i++ {
		if x[i] < x[i-1] {
			t.Errorf("taper not monotonic at %d", i)
		}
	}
	// Symmetric.
	for i := 0; i < 10; i++ {
		if math.Abs(x[i]-x[99-i]) > 1e-15 {
			t.Errorf("taper asymmetric at %d", i)
		}
	}
	// No-ops.
	y := []float64{5, 5}
	CosineTaper(y, 0)
	CosineTaper(y, -1)
	CosineTaper(nil, 0.5)
	if y[0] != 5 || y[1] != 5 {
		t.Errorf("no-op taper modified data: %v", y)
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

// referenceFIR is the one-output-at-a-time direct form that Apply must
// reproduce bit for bit: out[i] sums taps[j]*x[i+delay-j] over the in-range
// taps in ascending j.
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

// TestFIRKernelMatchesReference checks Apply's blocked kernel against the
// reference loop in this file: random odd tap counts 1-121, every n from 1
// to 300 (so n below the delay and below the tap count), and the longrec
// shape.
func TestFIRKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tapCounts := []int{1, 3, 5, 121}
	for range 8 {
		tapCounts = append(tapCounts, 2*rng.Intn(61)+1)
	}
	for _, m := range tapCounts {
		fir := &FIRFilter{Taps: randomSignal(m, int64(m))}
		for n := 1; n <= 300; n++ {
			x := randomSignal(n, int64(n*1000+m))
			want := referenceFIR(fir.Taps, x)
			sameBits(t, fmt.Sprintf("taps=%d n=%d Apply", m, n), fir.Apply(x), want)
		}
	}

	// The longrec workload's shape: 36,000 samples through 2,201 taps.
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
}
