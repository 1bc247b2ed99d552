package seismic

import (
	"math"
	"strings"
	"testing"
)

func validTrace(n int) Trace {
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i) / 7)
	}
	return Trace{DT: 0.01, Data: data}
}

func validRecord(station string, n int) Record {
	return Record{
		Station: station,
		Accel:   [3]Trace{validTrace(n), validTrace(n), validTrace(n)},
	}
}

func TestComponentSuffixAndString(t *testing.T) {
	cases := []struct {
		c      Component
		suffix string
		name   string
	}{
		{Longitudinal, "l", "longitudinal"},
		{Transversal, "t", "transversal"},
		{Vertical, "v", "vertical"},
	}
	for _, c := range cases {
		if got := c.c.Suffix(); got != c.suffix {
			t.Errorf("%v.Suffix() = %q, want %q", c.c, got, c.suffix)
		}
		if got := c.c.String(); got != c.name {
			t.Errorf("String() = %q, want %q", got, c.name)
		}
	}
	if Component(9).Suffix() != "?" {
		t.Error("invalid component suffix")
	}
	if !strings.Contains(Component(9).String(), "9") {
		t.Error("invalid component String should embed the value")
	}
}

func TestParseComponent(t *testing.T) {
	good := map[string]Component{
		"l": Longitudinal, "T": Transversal, "v": Vertical,
		"Longitudinal": Longitudinal, " transversal ": Transversal, "VERTICAL": Vertical,
	}
	for in, want := range good {
		got, err := ParseComponent(in)
		if err != nil || got != want {
			t.Errorf("ParseComponent(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "x", "lt", "long"} {
		if _, err := ParseComponent(in); err == nil {
			t.Errorf("ParseComponent(%q): want error", in)
		}
	}
}

func TestTraceValidate(t *testing.T) {
	if err := validTrace(10).Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	bad := []Trace{
		{DT: 0, Data: []float64{1}},
		{DT: -0.01, Data: []float64{1}},
		{DT: 0.01, Data: nil},
		{DT: 0.01, Data: []float64{1, math.NaN()}},
		{DT: 0.01, Data: []float64{math.Inf(1)}},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: invalid trace accepted", i)
		}
	}
}

func TestTraceDurationAndClone(t *testing.T) {
	tr := validTrace(101)
	if d := tr.Duration(); math.Abs(d-1.0) > 1e-12 {
		t.Errorf("Duration = %g, want 1.0", d)
	}
	if (Trace{}).Duration() != 0 {
		t.Error("empty trace duration != 0")
	}
	c := tr.Clone()
	c.Data[0] = 999
	if tr.Data[0] == 999 {
		t.Error("Clone shares backing array")
	}
}

func TestRecordValidate(t *testing.T) {
	if err := validRecord("SS01", 100).Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	r := validRecord("", 100)
	if err := r.Validate(); err == nil {
		t.Error("empty station accepted")
	}
	r = validRecord("SS01", 100)
	r.Accel[1].DT = 0.02
	if err := r.Validate(); err == nil {
		t.Error("mismatched DT accepted")
	}
	r = validRecord("SS01", 100)
	r.Accel[2].Data = r.Accel[2].Data[:50]
	if err := r.Validate(); err == nil {
		t.Error("mismatched length accepted")
	}
	r = validRecord("SS01", 100)
	r.Accel[0].Data[3] = math.NaN()
	if err := r.Validate(); err == nil {
		t.Error("NaN sample accepted")
	}
}

func TestEventValidateAndTotals(t *testing.T) {
	e := Event{
		Name:    "test",
		Records: []Record{validRecord("A", 100), validRecord("B", 200)},
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
	if got := e.TotalDataPoints(); got != 300 {
		t.Errorf("TotalDataPoints = %d, want 300", got)
	}
	e.Records = append(e.Records, validRecord("A", 50))
	if err := e.Validate(); err == nil {
		t.Error("duplicate station accepted")
	}
}

func TestPeaksConstantAcceleration(t *testing.T) {
	// a(t) = 1 gal for 1 s: PGA=1 at t~0 (any index with |a|=1; first wins),
	// PGV = v(end) ~ 1 cm/s, PGD = d(end) ~ 0.5 cm.
	n := 1001
	tr := Trace{DT: 0.001, Data: make([]float64, n)}
	for i := range tr.Data {
		tr.Data[i] = 1
	}
	p, err := Peaks(tr)
	if err != nil {
		t.Fatal(err)
	}
	if p.PGA != 1 || p.TimePGA != 0 {
		t.Errorf("PGA = %g at %g, want 1 at 0", p.PGA, p.TimePGA)
	}
	if math.Abs(p.PGV-1.0005) > 1e-3 {
		t.Errorf("PGV = %g, want ~1", p.PGV)
	}
	if math.Abs(p.PGD-0.5) > 2e-3 {
		t.Errorf("PGD = %g, want ~0.5", p.PGD)
	}
	if p.TimePGV < 0.99 || p.TimePGD < 0.99 {
		t.Errorf("monotone integrals must peak at the end: tv=%g td=%g", p.TimePGV, p.TimePGD)
	}
}

func TestPeaksRejectsInvalid(t *testing.T) {
	if _, err := Peaks(Trace{}); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestAriasIntensity(t *testing.T) {
	// Constant a = 2 gal over 10 s: Ia = pi/(2g) * 4 * 10.
	n := 10001
	tr := Trace{DT: 0.001, Data: make([]float64, n)}
	for i := range tr.Data {
		tr.Data[i] = 2
	}
	ia, err := AriasIntensity(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pi / (2 * GravityGal) * 4 * 10.001
	if math.Abs(ia-want) > 1e-9 {
		t.Errorf("Ia = %g, want %g", ia, want)
	}
	if _, err := AriasIntensity(Trace{}); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestSignificantDuration(t *testing.T) {
	// Energy uniformly distributed: D(5,95) = 0.9 * T.
	n := 10000
	tr := Trace{DT: 0.01, Data: make([]float64, n)}
	for i := range tr.Data {
		tr.Data[i] = 1
	}
	d, err := SignificantDuration(tr, 0.05, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	total := float64(n-1) * 0.01
	if math.Abs(d-0.9*total) > 0.05 {
		t.Errorf("D(5-95) = %g, want ~%g", d, 0.9*total)
	}
	// hiFrac = 1 reaches the last sample.
	if _, err := SignificantDuration(tr, 0.05, 1); err != nil {
		t.Errorf("hiFrac=1: %v", err)
	}
}

func TestSignificantDurationErrors(t *testing.T) {
	tr := validTrace(100)
	for _, c := range []struct{ lo, hi float64 }{{-0.1, 0.5}, {0.5, 0.5}, {0.9, 0.1}, {0.1, 1.1}} {
		if _, err := SignificantDuration(tr, c.lo, c.hi); err == nil {
			t.Errorf("fractions (%g,%g) accepted", c.lo, c.hi)
		}
	}
	zero := Trace{DT: 0.01, Data: make([]float64, 10)}
	if _, err := SignificantDuration(zero, 0.05, 0.95); err == nil {
		t.Error("zero-energy trace accepted")
	}
	if _, err := SignificantDuration(Trace{}, 0.05, 0.95); err == nil {
		t.Error("invalid trace accepted")
	}
}
