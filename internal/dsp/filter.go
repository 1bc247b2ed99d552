package dsp

import (
	"fmt"
	"math"
)

// BandPassSpec describes an Ormsby-style band-pass filter by its four corner
// frequencies in Hz.  The low-frequency transition ramps from zero response
// at FSL ("frequency, stop, low") to full response at FPL ("frequency, pass,
// low"); the high-frequency transition ramps down from FPH to FSH.  FSL and
// FPL are exactly the parameters the pipeline's Fourier-analysis step picks
// from the velocity spectrum (paper process #10); FPH/FSH default to fixed
// engineering values near the anti-alias corner.
type BandPassSpec struct {
	FSL float64 // low stop frequency (Hz), zero response at and below
	FPL float64 // low pass frequency (Hz), full response at and above
	FPH float64 // high pass frequency (Hz), full response at and below
	FSH float64 // high stop frequency (Hz), zero response at and above
}

// Validate checks 0 <= FSL < FPL < FPH < FSH and that FSH does not exceed
// the Nyquist frequency for sample interval dt.
func (s BandPassSpec) Validate(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("dsp: non-positive sample interval %g", dt)
	}
	if !(0 <= s.FSL && s.FSL < s.FPL && s.FPL < s.FPH && s.FPH < s.FSH) {
		return fmt.Errorf("dsp: band-pass corners must satisfy 0 <= FSL < FPL < FPH < FSH, got %+v", s)
	}
	nyq := 0.5 / dt
	if s.FSH > nyq+1e-9 {
		return fmt.Errorf("dsp: FSH %g Hz exceeds Nyquist %g Hz", s.FSH, nyq)
	}
	return nil
}

// FIRFilter is a linear-phase finite impulse response filter with an odd
// number of taps (type-I), designed by the Hamming window method.
type FIRFilter struct {
	Taps []float64 // symmetric impulse response, len is odd
}

// Delay returns the filter's group delay in samples, (len(Taps)-1)/2.
func (f *FIRFilter) Delay() int { return (len(f.Taps) - 1) / 2 }

// DesignBandPass designs a Hamming-windowed sinc band-pass FIR filter for
// the given spec and sample interval dt.  The tap count is chosen from the
// narrower of the two transition bands using the Hamming window's normalized
// transition width of 3.3/N, then clamped to [minTaps, maxTaps] and forced
// odd so the filter has integer group delay.
func DesignBandPass(spec BandPassSpec, dt float64) (*FIRFilter, error) {
	if err := spec.Validate(dt); err != nil {
		return nil, err
	}
	fs := 1 / dt
	lowTrans := (spec.FPL - spec.FSL) / fs
	highTrans := (spec.FSH - spec.FPH) / fs
	trans := math.Min(lowTrans, highTrans)
	const (
		minTaps = 21
		maxTaps = 4001
	)
	n := int(math.Ceil(3.3 / trans))
	if n < minTaps {
		n = minTaps
	}
	if n > maxTaps {
		n = maxTaps
	}
	if n%2 == 0 {
		n++
	}
	// Ideal band-pass between the transition-band midpoints.
	fc1 := (spec.FSL + spec.FPL) / 2 / fs // normalized cutoffs (cycles/sample)
	fc2 := (spec.FPH + spec.FSH) / 2 / fs
	taps := make([]float64, n)
	mid := (n - 1) / 2
	w := HammingWindow(n)
	for i := 0; i < n; i++ {
		k := i - mid
		var h float64
		if k == 0 {
			h = 2 * (fc2 - fc1)
		} else {
			x := math.Pi * float64(k)
			h = (math.Sin(2*math.Pi*fc2*float64(k)) - math.Sin(2*math.Pi*fc1*float64(k))) / x
		}
		taps[i] = h * w[i]
	}
	return &FIRFilter{Taps: taps}, nil
}

// Apply convolves x with the filter and compensates the group delay, so the
// output is time-aligned with the input and has the same length.  Samples
// beyond the ends of x are treated as zero, which is appropriate for
// strong-motion records that begin and end in quiet pre- and post-event
// noise (records are tapered before filtering).
func (f *FIRFilter) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	firKernel(out, f.Taps, x)
	return out
}

// firKernel is the direct-form FIR convolution behind Apply.  It writes
// output sample k of taps applied, delay compensated, to x:
//
//	out[k] = sum_j taps[j] * x[c-j],  c = k+delay,
//
// over the taps j whose input c-j lies in [0, len(x)), summed in ascending
// j from zero.  out has len(x) samples.
//
// Outputs are computed four at a time, each in its own accumulator, so one
// pass over the taps feeds four independent add chains.  Within a block
// each output sums a private head (taps below the block's shared range,
// clamped at the end of the signal), the shared range, then a private tail
// (taps above it, clamped at the start of the signal): the same terms in
// the same ascending order as a one-output-at-a-time loop, so every sample
// is bit-identical to it.
func firKernel(out, taps, x []float64) {
	n, m := len(x), len(taps)
	delay := (m - 1) / 2
	k := 0
	for ; k+4 <= n; k += 4 {
		c := k + delay
		// Output q of the block reads taps [max(0, c+q-(n-1)), min(m-1, c+q)];
		// [lo, hi] lies inside all four ranges.
		lo := max(0, c+3-(n-1))
		hi := min(m-1, c)
		if lo > hi {
			for q := range 4 {
				out[k+q] = firDot(0, taps, x, c+q, max(0, c+q-(n-1)), min(m-1, c+q))
			}
			continue
		}
		a0 := firDot(0, taps, x, c, max(0, c-(n-1)), lo-1)
		a1 := firDot(0, taps, x, c+1, max(0, c+1-(n-1)), lo-1)
		a2 := firDot(0, taps, x, c+2, max(0, c+2-(n-1)), lo-1)
		a0, a1, a2, a3 := firShared4(a0, a1, a2, taps[lo:hi+1], x[c-hi:c-lo+4])
		out[k] = a0
		out[k+1] = firDot(a1, taps, x, c+1, hi+1, min(m-1, c+1))
		out[k+2] = firDot(a2, taps, x, c+2, hi+1, min(m-1, c+2))
		out[k+3] = firDot(a3, taps, x, c+3, hi+1, min(m-1, c+3))
	}
	for ; k < n; k++ {
		c := k + delay
		out[k] = firDot(0, taps, x, c, max(0, c-(n-1)), min(m-1, c))
	}
}

// firShared4 adds a block's shared tap range ts to its four accumulators
// (the fourth starts from zero).  xs holds the inputs the range reads,
// len(ts)+3 of them: tap ts[j] meets xs[len(ts)-1-j+q] in output q, so each
// step loads one new input and the other three rotate down a register.  It
// is a function of its own so that its loop gets the registers to itself
// rather than sharing them with firKernel's block bookkeeping.
func firShared4(a0, a1, a2 float64, ts, xs []float64) (float64, float64, float64, float64) {
	var a3 float64
	i := len(ts) - 1
	xs = xs[:i+4]
	x1, x2, x3 := xs[i+1], xs[i+2], xs[i+3]
	for _, t := range ts {
		x0 := xs[i]
		a0 += t * x0
		a1 += t * x1
		a2 += t * x2
		a3 += t * x3
		x1, x2, x3 = x0, x1, x2
		i--
	}
	return a0, a1, a2, a3
}

// firDot returns acc + sum_{j=jLo}^{jHi} taps[j]*x[p-j], added in
// ascending j; an empty range returns acc unchanged.
func firDot(acc float64, taps, x []float64, p, jLo, jHi int) float64 {
	for j := jLo; j <= jHi; j++ {
		acc += taps[j] * x[p-j]
	}
	return acc
}

// BandPass designs and applies a Hamming band-pass filter in one call: the
// record is demeaned, cosine-tapered over taperFraction of each end, then
// filtered with delay compensation.  This is the exact operation performed
// by pipeline processes #4 (default corners) and #13 (corners picked per
// signal from the Fourier analysis).
func BandPass(x []float64, dt float64, spec BandPassSpec, taperFraction float64) ([]float64, error) {
	fir, err := DesignBandPass(spec, dt)
	if err != nil {
		return nil, err
	}
	work := make([]float64, len(x))
	copy(work, x)
	Demean(work)
	CosineTaper(work, taperFraction)
	return fir.Apply(work), nil
}

// Response evaluates the filter's amplitude response at frequency f Hz for
// sample interval dt, useful for verifying the designed pass and stop bands.
func (f *FIRFilter) Response(freq, dt float64) float64 {
	omega := 2 * math.Pi * freq * dt
	var re, im float64
	for k, t := range f.Taps {
		re += t * math.Cos(omega*float64(k))
		im -= t * math.Sin(omega*float64(k))
	}
	return math.Hypot(re, im)
}
