package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDemean(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	mean := Demean(x)
	if math.Abs(mean-2.5) > 1e-15 {
		t.Errorf("mean = %g, want 2.5", mean)
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	if math.Abs(sum) > 1e-12 {
		t.Errorf("residual sum = %g, want 0", sum)
	}
	if Demean(nil) != 0 {
		t.Error("Demean(nil) != 0")
	}
}

func TestDetrendRemovesExactLine(t *testing.T) {
	const n = 500
	x := make([]float64, n)
	for i := range x {
		x[i] = 3.5 - 0.02*float64(i)
	}
	intercept, slope := Detrend(x)
	if math.Abs(intercept-3.5) > 1e-9 || math.Abs(slope+0.02) > 1e-12 {
		t.Errorf("intercept, slope = %g, %g; want 3.5, -0.02", intercept, slope)
	}
	for i, v := range x {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("residual[%d] = %g, want 0", i, v)
		}
	}
}

func TestDetrendEdgeCases(t *testing.T) {
	if i, s := Detrend(nil); i != 0 || s != 0 {
		t.Errorf("Detrend(nil) = %g, %g", i, s)
	}
	one := []float64{7}
	if i, s := Detrend(one); i != 7 || s != 0 || one[0] != 0 {
		t.Errorf("Detrend(single) = %g, %g, residual %g", i, s, one[0])
	}
}

// Property: detrending leaves data with (numerically) zero mean and zero
// linear correlation with the index.
func TestDetrendResidualOrthogonality(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%250 + 2
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()*5 + 0.3*float64(i)
		}
		Detrend(x)
		var sum, tsum float64
		for i, v := range x {
			sum += v
			tsum += float64(i) * v
		}
		return math.Abs(sum) < 1e-6*float64(n) && math.Abs(tsum) < 1e-5*float64(n*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIntegrateConstantAcceleration(t *testing.T) {
	// Integrating a == 1 gives v(t) = t.
	n, dt := 100, 0.01
	a := make([]float64, n)
	for i := range a {
		a[i] = 1
	}
	v := Integrate(a, dt)
	for i := range v {
		// Trapezoid against implicit leading zero: v[i] = (i+0.5)*dt.
		want := (float64(i) + 0.5) * dt
		if math.Abs(v[i]-want) > 1e-12 {
			t.Fatalf("v[%d] = %g, want %g", i, v[i], want)
		}
	}
}

func TestIntegrateSineGivesCosine(t *testing.T) {
	// d/dt [-cos(wt)/w] = sin(wt): integral of sin from 0 is (1-cos(wt))/w.
	n, dt, w := 10000, 0.001, 2*math.Pi
	a := make([]float64, n)
	for i := range a {
		a[i] = math.Sin(w * float64(i+1) * dt)
	}
	v := Integrate(a, dt)
	for i := 100; i < n; i += 500 {
		ti := float64(i+1) * dt
		want := (1 - math.Cos(w*ti)) / w
		if math.Abs(v[i]-want) > 1e-4 {
			t.Errorf("v[%d] = %g, want %g", i, v[i], want)
		}
	}
}

func TestIntegrateEmpty(t *testing.T) {
	if got := Integrate(nil, 0.01); len(got) != 0 {
		t.Errorf("Integrate(nil) len = %d", len(got))
	}
	if got := Differentiate(nil, 0.01); len(got) != 0 {
		t.Errorf("Differentiate(nil) len = %d", len(got))
	}
}

// Property: Differentiate approximately inverts Integrate for smooth
// band-limited signals.
func TestDifferentiateInvertsIntegrate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, dt := 500, 0.01
		// Smooth random signal: a few random low-frequency sines.
		x := make([]float64, n)
		for h := 0; h < 4; h++ {
			amp, freq, ph := rng.NormFloat64(), rng.Float64()*2+0.1, rng.Float64()*2*math.Pi
			for i := range x {
				x[i] += amp * math.Sin(2*math.Pi*freq*float64(i)*dt+ph)
			}
		}
		back := Differentiate(Integrate(x, dt), dt)
		// First-difference of a trapezoid integral equals the midpoint
		// average (x[i]+x[i-1])/2, so compare against that.
		for i := 1; i < n; i++ {
			want := (x[i] + x[i-1]) / 2
			if math.Abs(back[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAbsMax(t *testing.T) {
	cases := []struct {
		x    []float64
		peak float64
		idx  int
	}{
		{nil, 0, -1},
		{[]float64{0}, 0, 0},
		{[]float64{1, -3, 2}, 3, 1},
		{[]float64{-1, -1, -5, 4}, 5, 2},
		{[]float64{2, 2}, 2, 0}, // first occurrence wins
	}
	for i, c := range cases {
		peak, idx := AbsMax(c.x)
		if peak != c.peak || idx != c.idx {
			t.Errorf("case %d: AbsMax = (%g, %d), want (%g, %d)", i, peak, idx, c.peak, c.idx)
		}
	}
}
