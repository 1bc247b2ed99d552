// Package fourier computes the Fourier spectral products of the pipeline:
// the <station><c>.f amplitude spectra (process #7) and the FPL/FSL filter
// corner picks from the velocity Fourier spectrum (process #10).
//
// The paper's process #10 ("Obtain FSL & FPL values") searches the velocity
// Fourier spectrum of each component for the inflection point at periods
// greater than one second — the period beyond which long-period noise
// overtakes the signal — and derives from it the corner frequencies of the
// definitive band-pass correction.  CalculateInflectionPoint below mirrors
// the early-termination scan described in section V-B of the paper.
package fourier

import (
	"math"

	"accelproc/internal/dsp"
	"accelproc/internal/smformat"
)

// Spectra computes the single-sided Fourier amplitude spectra of a corrected
// component (acceleration, velocity, displacement) on a common frequency
// grid, producing the payload of an F file.
func Spectra(v smformat.V2) (smformat.Fourier, error) {
	if err := v.Validate(); err != nil {
		return smformat.Fourier{}, err
	}
	accAmp, df, err := dsp.AmplitudeSpectrum(v.Accel, v.DT)
	if err != nil {
		return smformat.Fourier{}, err
	}
	velAmp, _, err := dsp.AmplitudeSpectrum(v.Vel, v.DT)
	if err != nil {
		return smformat.Fourier{}, err
	}
	dispAmp, _, err := dsp.AmplitudeSpectrum(v.Disp, v.DT)
	if err != nil {
		return smformat.Fourier{}, err
	}
	return smformat.Fourier{
		Station:   v.Station,
		Component: v.Component,
		DF:        df,
		Accel:     accAmp,
		Vel:       velAmp,
		Disp:      dispAmp,
	}, nil
}

// PickConfig tunes the inflection-point search.
type PickConfig struct {
	// MinPeriod is the period (s) at which the scan starts; the paper scans
	// "periods greater than one second".  Zero selects 1.0 s.
	MinPeriod float64
	// SmoothHalfWidth is the half-width (bins) of the moving-average
	// smoothing applied to the log-amplitudes before slope analysis.
	// Zero selects 2.
	SmoothHalfWidth int
	// RunLength is how many consecutive rising points constitute an
	// inflection.  Zero selects 3.
	RunLength int
	// Fallback supplies the corners used when no inflection is found
	// (very clean records).  A zero Fallback selects DefaultSpec.
	Fallback dsp.BandPassSpec
	// FullScan disables the early-termination strategy the paper credits
	// for process #10's small execution time: instead of stopping at the
	// first inflection, the scan continues and keeps the last inflection
	// found.  The zero value (early termination) is the paper's approach;
	// FullScan is the ablation variant benchmarked in the evaluation.
	FullScan bool
}

// DefaultSpec returns the default band-pass corners used by process #4
// before any record-specific analysis (0.10-0.25 Hz low transition,
// 23-25 Hz high transition — typical strong-motion defaults).
func DefaultSpec() dsp.BandPassSpec {
	return dsp.BandPassSpec{FSL: 0.10, FPL: 0.25, FPH: 23, FSH: 25}
}

func (c PickConfig) withDefaults() PickConfig {
	if c.MinPeriod == 0 {
		c.MinPeriod = 1.0
	}
	if c.SmoothHalfWidth == 0 {
		c.SmoothHalfWidth = 2
	}
	if c.RunLength == 0 {
		c.RunLength = 3
	}
	if c.Fallback == (dsp.BandPassSpec{}) {
		c.Fallback = DefaultSpec()
	}
	return c
}

// CalculateInflectionPoint scans the velocity Fourier spectrum of one
// component for the long-period inflection and returns the corresponding
// band-pass corners: FPL is the frequency of the inflection and FSL is half
// of it (one-octave transition), with the high corners taken from the
// fallback spec.  If the spectrum never turns upward the fallback corners
// are returned.
func CalculateInflectionPoint(f smformat.Fourier, cfg PickConfig) (dsp.BandPassSpec, error) {
	if err := f.Validate(); err != nil {
		return dsp.BandPassSpec{}, err
	}
	cfg = cfg.withDefaults()
	spec := cfg.Fallback

	// The scan walks the bins with period > MinPeriod (frequency below
	// 1/MinPeriod) in order of increasing period: scan index i maps to
	// frequency bin kmax-i, so i = 0 is the period just above MinPeriod
	// and indices grow with period.  Bin 0 (DC) is excluded: it has no
	// period.  No bins are materialized: with early termination (the
	// paper's strategy) everything past the first inflection is never
	// touched at all.
	maxF := 1 / cfg.MinPeriod
	kmax := int(maxF / f.DF)
	if kmax > len(f.Vel)-1 {
		kmax = len(f.Vel) - 1
	}
	n := kmax // scan indices 0..n-1 map to bins kmax..1
	if n < 2*cfg.SmoothHalfWidth+cfg.RunLength+2 {
		// Not enough long-period bins to analyze; keep defaults.
		return spec, nil
	}
	sm := newLazySmoother(func(i int) float64 { return f.Vel[kmax-i] }, n, cfg.SmoothHalfWidth)

	// Scan for RunLength consecutive rising steps: the spectrum turning
	// upward with growing period marks noise dominance.
	run := 0
	inflectionAt := -1
	for i := 1; i < n; i++ {
		if sm.at(i) > sm.at(i-1) {
			run++
			if run >= cfg.RunLength {
				inflectionAt = i - cfg.RunLength // start of the rise
				if !cfg.FullScan {
					break
				}
			}
		} else {
			run = 0
		}
	}
	if inflectionAt < 0 {
		return spec, nil
	}
	fpl := f.Frequency(kmax - inflectionAt)
	if fpl <= 0 || fpl >= spec.FPH {
		return spec, nil
	}
	spec.FPL = fpl
	spec.FSL = fpl / 2
	return spec, nil
}

// lazySmoother evaluates moving-average smoothed log10 amplitudes on
// demand, converting each amplitude to log scale at most once.  Zero
// amplitudes are floored to avoid -Inf.
type lazySmoother struct {
	amp       func(i int) float64
	n         int
	logs      []float64
	computed  []bool
	halfWidth int
}

func newLazySmoother(amp func(i int) float64, n, halfWidth int) *lazySmoother {
	return &lazySmoother{
		amp:       amp,
		n:         n,
		logs:      make([]float64, n),
		computed:  make([]bool, n),
		halfWidth: halfWidth,
	}
}

func (s *lazySmoother) log(i int) float64 {
	if !s.computed[i] {
		const floor = 1e-30
		a := s.amp(i)
		if a < floor {
			a = floor
		}
		s.logs[i] = math.Log10(a)
		s.computed[i] = true
	}
	return s.logs[i]
}

// at returns the smoothed log-amplitude at index i.
func (s *lazySmoother) at(i int) float64 {
	lo, hi := i-s.halfWidth, i+s.halfWidth
	if lo < 0 {
		lo = 0
	}
	if hi >= s.n {
		hi = s.n - 1
	}
	var sum float64
	for j := lo; j <= hi; j++ {
		sum += s.log(j)
	}
	return sum / float64(hi-lo+1)
}
