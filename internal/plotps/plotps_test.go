package plotps

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"accelproc/internal/dsp"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
)

func linSeries(n int) Series {
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i) * 0.01
		y[i] = math.Sin(float64(i) / 9)
	}
	return Series{Label: "sig", X: x, Y: y}
}

func TestWritePageProducesValidPostScript(t *testing.T) {
	var buf bytes.Buffer
	err := WritePage(&buf, "test doc", []Plot{
		{Axes: Axes{Title: "panel 1", XLabel: "t", YLabel: "v"}, Series: []Series{linSeries(100)}},
		{Axes: Axes{Title: "panel 2", XLabel: "t", YLabel: "v"}, Series: []Series{linSeries(50)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"%!PS-Adobe-3.0", "%%Title: test doc", "%%Page: 1 1", "showpage", "%%EOF",
		"(panel 1) show", "(panel 2) show", " L\n", " M\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Balanced stroke commands: every polyline ends in S.
	if !strings.Contains(out, "S\n") {
		t.Error("no strokes emitted")
	}
}

func TestWritePageNoPanels(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePage(&buf, "x", nil); err == nil {
		t.Error("zero panels accepted")
	}
}

func TestWritePageEmptySeriesDrawsFrameOnly(t *testing.T) {
	var buf bytes.Buffer
	err := WritePage(&buf, "empty", []Plot{{Axes: Axes{Title: "none"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(none) show") {
		t.Error("frame/title not drawn for empty panel")
	}
}

func TestWritePageRejectsMismatchedSeries(t *testing.T) {
	var buf bytes.Buffer
	err := WritePage(&buf, "bad", []Plot{{
		Axes:   Axes{Title: "bad"},
		Series: []Series{{Label: "b", X: []float64{1, 2}, Y: []float64{1}}},
	}})
	if err == nil {
		t.Error("mismatched series lengths accepted")
	}
}

func TestLogAxisSkipsNonPositive(t *testing.T) {
	var buf bytes.Buffer
	err := WritePage(&buf, "log", []Plot{{
		Axes: Axes{Title: "log", XLog: true, YLog: true},
		Series: []Series{{
			Label: "s",
			X:     []float64{0.1, 1, 10, -5, 100},
			Y:     []float64{1, 0, 10, 5, 100}, // zero/negative y dropped
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "showpage") {
		t.Error("page not completed")
	}
}

func TestMarkersDrawnAndLabelled(t *testing.T) {
	var buf bytes.Buffer
	err := WritePage(&buf, "m", []Plot{{
		Axes:    Axes{Title: "with markers"},
		Series:  []Series{linSeries(10)},
		Markers: []Marker{{Label: "FPL", X: 0.05}, {Label: "FSL", X: 0.02}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "(FPL) show") || !strings.Contains(out, "(FSL) show") {
		t.Error("marker labels missing")
	}
	if !strings.Contains(out, "setdash") {
		t.Error("markers not dashed")
	}
}

func TestPSEscape(t *testing.T) {
	if got := psEscape(`a(b)c\d`); got != `a\(b\)c\\d` {
		t.Errorf("psEscape = %q", got)
	}
}

func TestTicksLinear(t *testing.T) {
	got := ticks(axisRange{lo: 0, hi: 10})
	if len(got) < 4 || len(got) > 12 {
		t.Errorf("tick count %d for [0,10]: %v", len(got), got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("ticks not increasing: %v", got)
		}
	}
}

func TestTicksLog(t *testing.T) {
	got := ticks(axisRange{lo: 0.02, hi: 20, log: true})
	want := []float64{0.01, 0.1, 1, 10, 100}
	if len(got) != len(want) {
		t.Fatalf("log ticks = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*want[i] {
			t.Errorf("tick %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestFormatTick(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		1:      "1",
		2.5:    "2.5",
		0.25:   "0.25",
		1e-5:   "1e-05",
		123456: "1e+05",
	}
	for in, want := range cases {
		if got := formatTick(in); got != want {
			t.Errorf("formatTick(%g) = %q, want %q", in, got, want)
		}
	}
}

func sampleV2() smformat.V2 {
	n := 500
	v := smformat.V2{
		Station:   "SS01",
		Component: seismic.Longitudinal,
		DT:        0.01,
		Filter:    dsp.BandPassSpec{FSL: 0.1, FPL: 0.25, FPH: 23, FSH: 25},
		Accel:     make([]float64, n),
		Vel:       make([]float64, n),
		Disp:      make([]float64, n),
	}
	for i := 0; i < n; i++ {
		ti := float64(i) * v.DT
		v.Accel[i] = 50 * math.Sin(2*math.Pi*3*ti)
		v.Vel[i] = 3 * math.Cos(2*math.Pi*3*ti)
		v.Disp[i] = 0.2 * math.Sin(2*math.Pi*3*ti)
	}
	return v
}

func TestAccelPage(t *testing.T) {
	var buf bytes.Buffer
	if err := AccelPage(&buf, sampleV2()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"SS01l acceleration", "SS01l velocity", "SS01l displacement", "showpage"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	if err := AccelPage(&buf, smformat.V2{}); err == nil {
		t.Error("invalid V2 accepted")
	}
}

func TestFourierPage(t *testing.T) {
	n := 257
	f := smformat.Fourier{
		Station: "SS01", Component: seismic.Vertical, DF: 0.05,
		Accel: make([]float64, n), Vel: make([]float64, n), Disp: make([]float64, n),
	}
	for k := 1; k < n; k++ {
		fk := float64(k) * f.DF
		f.Accel[k] = fk
		f.Vel[k] = fk + 0.04/fk
		f.Disp[k] = 1 / fk
	}
	var buf bytes.Buffer
	spec := dsp.BandPassSpec{FSL: 0.1, FPL: 0.2, FPH: 23, FSH: 25}
	if err := FourierPage(&buf, f, spec); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fourier velocity", "(FPL) show", "(FSL) show"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	if err := FourierPage(&buf, smformat.Fourier{}, spec); err == nil {
		t.Error("invalid Fourier accepted")
	}
}

func TestResponsePage(t *testing.T) {
	n := 31
	r := smformat.Response{
		Station: "SS01", Component: seismic.Transversal, Damping: 0.05,
		Periods: make([]float64, n), SA: make([]float64, n), SV: make([]float64, n), SD: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		r.Periods[i] = 0.05 * math.Pow(1.2, float64(i))
		r.SA[i] = 100 / (1 + r.Periods[i])
		r.SV[i] = 10 * r.Periods[i]
		r.SD[i] = r.Periods[i] * r.Periods[i]
	}
	var buf bytes.Buffer
	if err := ResponsePage(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"response spectra", "(SA) show", "(SV) show", "(SD) show"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	if err := ResponsePage(&buf, smformat.Response{}); err == nil {
		t.Error("invalid Response accepted")
	}
}

// validatePS performs a structural sanity check of emitted PostScript:
// balanced parentheses and at least one stroked path per panel.
func validatePS(t *testing.T, ps string) {
	t.Helper()
	depth := 0
	escaped := false
	for i := 0; i < len(ps); i++ {
		c := ps[i]
		if escaped {
			escaped = false
			continue
		}
		switch c {
		case '\\':
			escaped = true
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				t.Fatalf("unbalanced ')' at byte %d", i)
			}
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced '(' depth %d at end", depth)
	}
	if !strings.HasPrefix(ps, "%!PS-Adobe-3.0") {
		t.Error("missing PS header")
	}
	if !strings.HasSuffix(strings.TrimSpace(ps), "%%EOF") {
		t.Error("missing EOF trailer")
	}
}

func TestEmittedPostScriptIsStructurallyValid(t *testing.T) {
	var buf bytes.Buffer
	err := WritePage(&buf, "structural (test) with \\ specials", []Plot{
		{Axes: Axes{Title: "panel (one)"}, Series: []Series{linSeries(64)}},
		{Axes: Axes{Title: "log", XLog: true, YLog: true}, Series: []Series{{
			Label: "s", X: []float64{0.1, 1, 10}, Y: []float64{1, 2, 3},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	validatePS(t, buf.String())
}

// BenchmarkWritePage renders a three-panel page of 20,000-point series,
// the size of a long record's [station].ps, where one line per sample
// dominates.
func BenchmarkWritePage(b *testing.B) {
	s := linSeries(20000)
	plots := []Plot{
		{Axes: Axes{Title: "acc", XLabel: "Time (s)", YLabel: "cm/s^2"}, Series: []Series{s}},
		{Axes: Axes{Title: "vel", XLabel: "Time (s)", YLabel: "cm/s"}, Series: []Series{s}},
		{Axes: Axes{Title: "disp", XLabel: "Time (s)", YLabel: "cm"}, Series: []Series{s}},
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WritePage(&buf, "bench", plots); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkAccelPage(b *testing.B) {
	v := sampleV2()
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := AccelPage(&buf, v); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
