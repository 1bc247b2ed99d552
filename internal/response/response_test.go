package response

import (
	"math"
	"testing"

	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
	"accelproc/internal/synth"
)

func impulseTrace(n int, dt float64) seismic.Trace {
	data := make([]float64, n)
	data[0] = 1 / dt // unit-area impulse
	return seismic.Trace{DT: dt, Data: data}
}

func sineTrace(n int, dt, freq, amp float64) seismic.Trace {
	data := make([]float64, n)
	for i := range data {
		data[i] = amp * math.Sin(2*math.Pi*freq*float64(i)*dt)
	}
	return seismic.Trace{DT: dt, Data: data}
}

func TestMethodString(t *testing.T) {
	if Duhamel.String() != "duhamel" || NigamJennings.String() != "nigam-jennings" {
		t.Errorf("names: %v %v", Duhamel, NigamJennings)
	}
	if Method(7).String() != "Method(7)" {
		t.Errorf("unknown method: %v", Method(7))
	}
}

func TestLogPeriods(t *testing.T) {
	p := LogPeriods(0.02, 20, 91)
	if len(p) != 91 {
		t.Fatalf("len = %d", len(p))
	}
	if math.Abs(p[0]-0.02) > 1e-15 || math.Abs(p[90]-20) > 1e-12 {
		t.Errorf("endpoints %g, %g", p[0], p[90])
	}
	// Log-spaced: constant ratio.
	r := p[1] / p[0]
	for i := 2; i < len(p); i++ {
		if math.Abs(p[i]/p[i-1]-r) > 1e-9 {
			t.Fatalf("ratio drifts at %d", i)
		}
	}
	// Degenerate calls collapse to the single low value.
	if got := LogPeriods(0.5, 2, 1); len(got) != 1 || got[0] != 0.5 {
		t.Errorf("n=1: %v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{}.withDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := []Config{
		{Damping: -0.05, Periods: []float64{1}},
		{Damping: 1.5, Periods: []float64{1}},
		{Damping: 0.05, Periods: []float64{}},
		{Damping: 0.05, Periods: []float64{0, 1}},
		{Damping: 0.05, Periods: []float64{2, 1}},
		{Damping: 0.05, Periods: []float64{1, 1}},
		{Damping: math.NaN(), Periods: []float64{1}},
		{Damping: math.Inf(1), Periods: []float64{1}},
		{Damping: 0.05, Periods: []float64{math.NaN()}},
		{Damping: 0.05, Periods: []float64{1, math.NaN()}},
		{Damping: 0.05, Periods: []float64{1, math.Inf(1)}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

// Free vibration after a unit impulse has the closed-form peak
// |u|max = (1/wd) e^{-xi w t*} sin(wd t*) at the first oscillation peak.
// Only the Duhamel (rectangle rule) method sees a discrete impulse at its
// full area; Nigam-Jennings interprets samples piecewise-linearly, so a
// single-sample spike is a half-area triangle to it — tested separately.
func TestOscillatorImpulseResponse(t *testing.T) {
	dt := 0.0005
	n := 40000
	T := 1.0
	xi := 0.05
	w := 2 * math.Pi / T
	wd := w * math.Sqrt(1-xi*xi)
	// Peak at wd t = atan(wd / (xi w)) for the impulse response.
	tPeak := math.Atan2(wd, xi*w) / wd
	want := math.Exp(-xi*w*tPeak) * math.Sin(wd*tPeak) / wd

	sd, _, _, err := Oscillator(impulseTrace(n, dt), T, xi, Duhamel)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sd-want) > 0.02*want {
		t.Errorf("duhamel: SD = %g, want ~%g", sd, want)
	}

	// Nigam-Jennings: a symmetric two-sample triangle (rise then fall)
	// integrates to the full unit area under linear interpolation.
	tri := make([]float64, n)
	tri[0] = 1 / dt // linear rise from implicit 0 before, fall to 0 after
	sdNJ, _, _, err := Oscillator(seismic.Trace{DT: dt, Data: tri}, T, xi, NigamJennings)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sdNJ-want/2) > 0.03*want {
		t.Errorf("nigam-jennings: SD = %g, want ~%g (half-area triangle)", sdNJ, want/2)
	}
}

// A very stiff oscillator rides the ground: SA -> PGA.
func TestStiffOscillatorSAEqualsPGA(t *testing.T) {
	tr := sineTrace(20000, 0.001, 2, 100) // PGA 100 gal at 2 Hz
	for _, m := range []Method{Duhamel, NigamJennings} {
		_, _, sa, err := Oscillator(tr, 0.01, 0.05, m) // T=0.01 s << 0.5 s
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sa-100) > 3 {
			t.Errorf("%v: stiff SA = %g, want ~100", m, sa)
		}
	}
}

// Resonant harmonic excitation: steady-state displacement amplitude is
// A/(2 xi w^2) at resonance (within transient tolerance).
func TestResonantAmplification(t *testing.T) {
	T := 0.5
	xi := 0.05
	w := 2 * math.Pi / T
	amp := 50.0
	tr := sineTrace(60000, 0.0005, 1/T, amp) // 30 s of resonant forcing
	want := amp / (2 * xi * w * w)
	for _, m := range []Method{Duhamel, NigamJennings} {
		sd, _, _, err := Oscillator(tr, T, xi, m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sd-want) > 0.05*want {
			t.Errorf("%v: resonant SD = %g, want ~%g", m, sd, want)
		}
	}
}

// The two methods must agree on realistic records.
func TestDuhamelMatchesNigamJennings(t *testing.T) {
	rec, err := synth.Record(synth.Params{
		Station: "SS01", Seed: 3, DT: 0.01, Samples: 3000,
		Magnitude: 5.5, Distance: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Accel[0]
	// Duhamel's rectangle rule carries O(dt/T) error, so the tolerance is
	// looser for short periods (T=0.1 s has only 10 samples per cycle).
	tol := map[float64]float64{0.1: 0.12, 0.3: 0.05, 1.0: 0.05, 3.0: 0.05}
	for _, T := range []float64{0.1, 0.3, 1.0, 3.0} {
		sdD, svD, saD, err := Oscillator(tr, T, 0.05, Duhamel)
		if err != nil {
			t.Fatal(err)
		}
		sdN, svN, saN, err := Oscillator(tr, T, 0.05, NigamJennings)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range []struct {
			name string
			d, n float64
		}{{"SD", sdD, sdN}, {"SV", svD, svN}, {"SA", saD, saN}} {
			if pair.n == 0 {
				t.Fatalf("T=%g: %s is zero", T, pair.name)
			}
			if rel := math.Abs(pair.d-pair.n) / pair.n; rel > tol[T] {
				t.Errorf("T=%g %s: duhamel %g vs nigam-jennings %g (rel %g)",
					T, pair.name, pair.d, pair.n, rel)
			}
		}
	}
}

func TestOscillatorErrors(t *testing.T) {
	tr := sineTrace(100, 0.01, 1, 1)
	if _, _, _, err := Oscillator(seismic.Trace{}, 1, 0.05, Duhamel); err == nil {
		t.Error("invalid trace accepted")
	}
	if _, _, _, err := Oscillator(tr, 0, 0.05, Duhamel); err == nil {
		t.Error("zero period accepted")
	}
	if _, _, _, err := Oscillator(tr, -1, 0.05, Duhamel); err == nil {
		t.Error("negative period accepted")
	}
	if _, _, _, err := Oscillator(tr, 1, 0, Duhamel); err == nil {
		t.Error("zero damping accepted")
	}
	if _, _, _, err := Oscillator(tr, 1, 1, Duhamel); err == nil {
		t.Error("critical damping accepted")
	}
	if _, _, _, err := Oscillator(tr, math.Inf(1), 0.05, Duhamel); err == nil {
		t.Error("infinite period accepted")
	}
	if _, _, _, err := Oscillator(tr, math.NaN(), 0.05, NigamJennings); err == nil {
		t.Error("NaN period accepted")
	}
	if _, _, _, err := Oscillator(tr, 1, math.NaN(), NigamJennings); err == nil {
		t.Error("NaN damping accepted")
	}
}

func TestSpectrumProducesValidRFile(t *testing.T) {
	tr := sineTrace(2000, 0.01, 2, 80)
	v2 := smformat.V2{
		Station: "SS07", Component: seismic.Transversal, DT: tr.DT,
		Filter: smformat.FilterParams{}.Default,
		Accel:  tr.Data,
		Vel:    make([]float64, len(tr.Data)),
		Disp:   make([]float64, len(tr.Data)),
	}
	v2.Filter.FSL, v2.Filter.FPL, v2.Filter.FPH, v2.Filter.FSH = 0.1, 0.25, 23, 25
	cfg := Config{Method: NigamJennings, Periods: LogPeriods(0.05, 10, 31)}
	r, err := Spectrum(v2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("spectrum invalid: %v", err)
	}
	if r.Station != "SS07" || r.Component != seismic.Transversal {
		t.Error("identity not propagated")
	}
	if r.Damping != 0.05 {
		t.Errorf("default damping = %g", r.Damping)
	}
	if len(r.Periods) != 31 {
		t.Errorf("periods = %d", len(r.Periods))
	}
	// The spectrum must peak near the excitation period (0.5 s).
	maxSA, maxIdx := 0.0, 0
	for i, sa := range r.SA {
		if sa > maxSA {
			maxSA, maxIdx = sa, i
		}
	}
	if r.Periods[maxIdx] < 0.3 || r.Periods[maxIdx] > 0.8 {
		t.Errorf("SA peaks at T=%g, want ~0.5", r.Periods[maxIdx])
	}
	if _, err := Spectrum(smformat.V2{}, cfg); err == nil {
		t.Error("invalid V2 accepted")
	}
	if _, err := Spectrum(v2, Config{Damping: 2}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDefaultPeriodsSpanPaperFigure4(t *testing.T) {
	p := DefaultPeriods()
	if p[0] != 0.02 || math.Abs(p[len(p)-1]-20) > 1e-9 {
		t.Errorf("span = [%g, %g], want [0.02, 20]", p[0], p[len(p)-1])
	}
}

// referenceDuhamel is the one-output-at-a-time Duhamel loop that the
// blocked kernel replaced: each output re-sums its whole history with u
// and v in one pass.
func referenceDuhamel(a []float64, dt, period, xi float64) (sd, sv, sa float64) {
	n := len(a)
	w := 2 * math.Pi / period
	wd := w * math.Sqrt(1-float64(xi*xi))
	h := make([]float64, n)
	hv := make([]float64, n)
	for k := 0; k < n; k++ {
		tk := float64(k) * dt
		e := math.Exp(-xi * w * tk)
		s, c := math.Sincos(wd * tk)
		h[k] = e * s
		hv[k] = e * (float64(wd*c) - float64(xi*w*s))
	}
	scale := -dt / wd
	for i := 0; i < n; i++ {
		var du, dv float64
		for j := 0; j <= i; j++ {
			aj := a[j]
			du += float64(aj * h[i-j])
			dv += float64(aj * hv[i-j])
		}
		u := scale * du
		v := scale * dv
		if au := math.Abs(u); au > sd {
			sd = au
		}
		if av := math.Abs(v); av > sv {
			sv = av
		}
		if aa := math.Abs(-(float64(2*xi*w*v) + float64(w*w*u))); aa > sa {
			sa = aa
		}
	}
	return sd, sv, sa
}

// The blocked kernel must reproduce the reference loop bit for bit: every
// n%4 tail, records shorter than one block, the paper workload's component
// length (~505 samples) and a long record, at periods across the grid.
func TestDuhamelKernelMatchesReference(t *testing.T) {
	rec, err := synth.Record(synth.Params{
		Station: "SS01", Seed: 7, DT: 0.01, Samples: 4000,
		Magnitude: 5.5, Distance: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	full := rec.Accel[0]
	var lengths []int
	for n := 1; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 503, 504, 505, 506, 4000)
	for _, n := range lengths {
		a := full.Data[:n]
		for _, T := range LogPeriods(0.05, 10, 5) {
			sd, sv, sa := duhamel(a, full.DT, T, 0.05)
			rd, rv, ra := referenceDuhamel(a, full.DT, T, 0.05)
			for _, c := range []struct {
				name      string
				got, want float64
			}{{"SD", sd, rd}, {"SV", sv, rv}, {"SA", sa, ra}} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Fatalf("n=%d T=%g %s: kernel %v, reference %v", n, T, c.name, c.got, c.want)
				}
			}
		}
	}
}
