package fourier

import (
	"math"
	"testing"

	"accelproc/internal/dsp"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
	"accelproc/internal/synth"
)

// synthFourier builds a Fourier struct whose velocity spectrum follows
// A(f) = f + c/f: decaying toward long periods until f = sqrt(c), then
// rising as noise dominates — a clean V-shaped inflection at sqrt(c) Hz.
func synthFourier(c float64) smformat.Fourier {
	const nbins = 2048
	const df = 0.005
	f := smformat.Fourier{
		Station:   "SS01",
		Component: seismic.Longitudinal,
		DF:        df,
		Accel:     make([]float64, nbins),
		Vel:       make([]float64, nbins),
		Disp:      make([]float64, nbins),
	}
	for k := 1; k < nbins; k++ {
		fk := float64(k) * df
		f.Accel[k] = fk
		f.Vel[k] = fk + c/fk
		f.Disp[k] = 1 / fk
	}
	return f
}

func TestCalculateInflectionPointFindsCorner(t *testing.T) {
	// Minimum of f + 0.04/f is at f = 0.2 Hz (period 5 s).
	f := synthFourier(0.04)
	spec, err := CalculateInflectionPoint(f, PickConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if spec.FPL < 0.1 || spec.FPL > 0.3 {
		t.Errorf("FPL = %g Hz, want ~0.2", spec.FPL)
	}
	if math.Abs(spec.FSL-spec.FPL/2) > 1e-12 {
		t.Errorf("FSL = %g, want FPL/2 = %g", spec.FSL, spec.FPL/2)
	}
	// High corners from the fallback.
	def := DefaultSpec()
	if spec.FPH != def.FPH || spec.FSH != def.FSH {
		t.Errorf("high corners = %g/%g, want defaults %g/%g", spec.FPH, spec.FSH, def.FPH, def.FSH)
	}
	if err := spec.Validate(0.005); err != nil {
		t.Errorf("picked spec invalid: %v", err)
	}
}

func TestCalculateInflectionPointEarlyVsFullScanAgree(t *testing.T) {
	f := synthFourier(0.04)
	early, err := CalculateInflectionPoint(f, PickConfig{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := CalculateInflectionPoint(f, PickConfig{FullScan: true})
	if err != nil {
		t.Fatal(err)
	}
	// On a V-shaped spectrum rising monotonically past the corner, the
	// full scan's last inflection tracks later rises; both must stay at or
	// beyond the early pick and below the scan start.
	if early.FPL <= 0 || full.FPL <= 0 {
		t.Fatalf("picks: early %g, full %g", early.FPL, full.FPL)
	}
	if full.FPL > early.FPL+1e-9 {
		t.Errorf("full-scan FPL %g exceeds early-termination FPL %g", full.FPL, early.FPL)
	}
}

func TestCalculateInflectionPointFallsBackOnCleanSpectrum(t *testing.T) {
	// A(f) = f decays monotonically toward long periods: no inflection.
	f := synthFourier(0)
	spec, err := CalculateInflectionPoint(f, PickConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if spec != DefaultSpec() {
		t.Errorf("spec = %+v, want fallback %+v", spec, DefaultSpec())
	}
}

func TestCalculateInflectionPointTooFewBins(t *testing.T) {
	f := smformat.Fourier{
		Station:   "SS01",
		Component: seismic.Longitudinal,
		DF:        0.5, // only bins 1..2 fall below 1 Hz
		Accel:     []float64{0, 1, 1, 1},
		Vel:       []float64{0, 1, 1, 1},
		Disp:      []float64{0, 1, 1, 1},
	}
	spec, err := CalculateInflectionPoint(f, PickConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if spec != DefaultSpec() {
		t.Errorf("spec = %+v, want fallback", spec)
	}
}

func TestCalculateInflectionPointRejectsInvalid(t *testing.T) {
	if _, err := CalculateInflectionPoint(smformat.Fourier{}, PickConfig{}); err == nil {
		t.Error("invalid Fourier accepted")
	}
}

func TestSpectraMatchesDSP(t *testing.T) {
	n := 1000
	v2 := smformat.V2{
		Station:   "SS01",
		Component: seismic.Vertical,
		DT:        0.01,
		Filter:    DefaultSpec(),
		Accel:     make([]float64, n),
		Vel:       make([]float64, n),
		Disp:      make([]float64, n),
	}
	for i := 0; i < n; i++ {
		ti := float64(i) * v2.DT
		v2.Accel[i] = math.Sin(2 * math.Pi * 5 * ti)
		v2.Vel[i] = math.Cos(2 * math.Pi * 5 * ti)
		v2.Disp[i] = math.Sin(2 * math.Pi * 1 * ti)
	}
	f, err := Spectra(v2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Station != v2.Station || f.Component != v2.Component {
		t.Error("identity not propagated")
	}
	if len(f.Accel) != n/2+1 {
		t.Errorf("bins = %d, want %d", len(f.Accel), n/2+1)
	}
	wantAmps, wantDF, err := dsp.AmplitudeSpectrum(v2.Accel, v2.DT)
	if err != nil {
		t.Fatal(err)
	}
	if f.DF != wantDF {
		t.Errorf("DF = %g, want %g", f.DF, wantDF)
	}
	for k := range wantAmps {
		if f.Accel[k] != wantAmps[k] {
			t.Fatalf("bin %d differs from dsp.AmplitudeSpectrum", k)
		}
	}
	if err := f.Validate(); err != nil {
		t.Errorf("spectra invalid: %v", err)
	}
	if _, err := Spectra(smformat.V2{}); err == nil {
		t.Error("invalid V2 accepted")
	}
}

// End-to-end sanity: a synthetic record processed through the default
// filter then Fourier analysis yields a pickable, valid spec.
func TestPickOnSyntheticRecord(t *testing.T) {
	rec, err := synth.Record(synth.Params{
		Station: "SS01", Seed: 5, DT: 0.01, Samples: 8192,
		Magnitude: 5.5, Distance: 40, NoiseFloor: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	accel, err := dsp.BandPass(rec.Accel[0].Data, rec.Accel[0].DT, DefaultSpec(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	vel := dsp.Integrate(accel, rec.Accel[0].DT)
	disp := dsp.Integrate(vel, rec.Accel[0].DT)
	v2 := smformat.V2{
		Station: "SS01", Component: seismic.Longitudinal, DT: rec.Accel[0].DT,
		Filter: DefaultSpec(), Accel: accel, Vel: vel, Disp: disp,
	}
	f, err := Spectra(v2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := CalculateInflectionPoint(f, PickConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(v2.DT); err != nil {
		t.Errorf("picked spec invalid: %v (spec %+v)", err, spec)
	}
}
