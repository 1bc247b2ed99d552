package response

import (
	"fmt"
	"testing"

	"accelproc/internal/dsp"
	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
	"accelproc/internal/synth"
)

func benchTrace(b *testing.B, n int) seismic.Trace {
	b.Helper()
	rec, err := synth.Record(synth.Params{
		Station: "SS01", Seed: 1, DT: 0.01, Samples: n,
		Magnitude: 5.5, Distance: 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	return rec.Accel[0]
}

// paperSamples is the mean component length of the repo benchmark's paper
// workload (the largest Table I event at scale 0.025: 9,600 points over 19
// records).
const paperSamples = 505

// BenchmarkOscillator contrasts the legacy O(D^2) Duhamel convolution with
// the O(D) Nigam-Jennings recursion across record lengths — the scaling gap
// that makes stage IX dominate the paper's sequential runtime.
func BenchmarkOscillator(b *testing.B) {
	for _, n := range []int{paperSamples, 1000, 4000, 16000} {
		tr := benchTrace(b, n)
		for _, m := range []Method{Duhamel, NigamJennings} {
			m := m
			b.Run(fmt.Sprintf("%s/n=%d", m, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, _, err := Oscillator(tr, 1.0, 0.05, m); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// toV2 wraps a bare acceleration trace in the minimal valid V2 payload.
func toV2(tr seismic.Trace) smformat.V2 {
	n := len(tr.Data)
	return smformat.V2{
		Station:   "SS01",
		Component: seismic.Longitudinal,
		DT:        tr.DT,
		Filter:    dsp.BandPassSpec{FSL: 0.1, FPL: 0.25, FPH: 23, FSH: 25},
		Accel:     tr.Data,
		Vel:       make([]float64, n),
		Disp:      make([]float64, n),
	}
}

// BenchmarkSpectrum measures a full spectrum computation (many periods) per
// method: at a typical record length with 16 periods, and at the paper
// workload's shape (505 samples, 32 periods).
func BenchmarkSpectrum(b *testing.B) {
	for _, shape := range []struct{ n, periods int }{{4000, 16}, {paperSamples, 32}} {
		v2 := toV2(benchTrace(b, shape.n))
		for _, m := range []Method{Duhamel, NigamJennings} {
			cfg := Config{Method: m, Periods: LogPeriods(0.05, 10, shape.periods)}
			b.Run(fmt.Sprintf("%s/n=%d/periods=%d", m, shape.n, shape.periods), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Spectrum(v2, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
