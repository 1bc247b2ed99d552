package dsp

import (
	"math"
	"slices"
)

// This file holds the incremental (chunk-at-a-time) counterparts of the
// whole-record kernels used by the streaming execution plane.  Every helper
// here is bit-identical to its batch twin: the same operations in the same
// order on the same float64 values, so a streamed run produces byte-identical
// output files.  Each helper documents the batch function it mirrors;
// StreamingFIR does not mirror Apply's loop but calls the same kernel over a
// sliding window of its input.  Tests in stream_test.go pin the equivalence
// sample by sample, the FIR against a reference loop of their own.

// MeanAccum accumulates the running sum needed to reproduce Demean's mean
// over a signal delivered in chunks.  Additions happen in sample order, so
// the final mean is bit-identical to Demean's.
type MeanAccum struct {
	n   int
	sum float64
}

// Observe adds one sample.
func (a *MeanAccum) Observe(v float64) {
	a.sum += v
	a.n++
}

// ObserveSlice adds a run of samples in order.
func (a *MeanAccum) ObserveSlice(vs []float64) {
	for _, v := range vs {
		a.sum += v
	}
	a.n += len(vs)
}

// Mean returns the mean exactly as Demean computes it; zero for no samples.
func (a *MeanAccum) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// TrendAccum accumulates the two sums of Detrend's closed-form linear
// regression over a signal delivered in chunks.  Each accumulator is summed
// in sample order, matching Detrend's single loop bit for bit.
type TrendAccum struct {
	n           int
	sumY, sumTY float64
}

// Observe adds one sample (the index is tracked internally).
func (a *TrendAccum) Observe(v float64) {
	a.sumY += v
	a.sumTY += float64(a.n) * v
	a.n++
}

// Line returns the least-squares intercept and slope exactly as Detrend
// computes them, including the n==1 degenerate case (the sample itself is
// the intercept, slope zero).
func (a *TrendAccum) Line() (intercept, slope float64) {
	if a.n == 0 {
		return 0, 0
	}
	if a.n == 1 {
		return a.sumY, 0
	}
	fn := float64(a.n)
	sumT := fn * (fn - 1) / 2
	sumT2 := (fn - 1) * fn * (2*fn - 1) / 6
	den := fn*sumT2 - sumT*sumT
	slope = (fn*a.sumTY - sumT*a.sumY) / den
	intercept = (a.sumY - slope*sumT) / fn
	return intercept, slope
}

// Taper evaluates CosineTaper's split cosine-bell as a per-position factor,
// so a streamed pass can apply the identical taper without holding the whole
// signal.  Factor reports whether position p is inside a ramp and, if so,
// the exact weight CosineTaper would multiply by; outside the ramps the
// sample must be left untouched (not multiplied by 1.0), matching the batch
// kernel exactly.
type Taper struct {
	n, m int
}

// NewTaper captures the taper geometry for an n-sample signal and the given
// end fraction, with the same clamping rules as CosineTaper.
func NewTaper(n int, fraction float64) Taper {
	if n == 0 || fraction <= 0 {
		return Taper{n: n}
	}
	if fraction > 0.5 {
		fraction = 0.5
	}
	m := int(fraction * float64(n))
	if m < 1 {
		return Taper{n: n}
	}
	return Taper{n: n, m: m}
}

// Factor returns the ramp weight at position p and whether one applies.
func (t Taper) Factor(p int) (float64, bool) {
	if t.m == 0 {
		return 0, false
	}
	if p < t.m {
		return 0.5 * (1 - math.Cos(math.Pi*float64(p)/float64(t.m))), true
	}
	if p >= t.n-t.m {
		i := t.n - 1 - p
		return 0.5 * (1 - math.Cos(math.Pi*float64(i)/float64(t.m))), true
	}
	return 0, false
}

// StreamingFIR applies a FIRFilter to a signal of known length delivered in
// chunks, emitting the delay-compensated output in order.  It runs Apply's
// own kernel over a sliding window: the last len(Taps)-1 inputs followed by
// the pushed chunk, which holds every input the newly computable outputs
// read, so every output sample is bit-identical to the batch filter's.
type StreamingFIR struct {
	taps  []float64
	delay int
	n     int       // total input length, known up front
	win   []float64 // inputs [k-len(win), k), at most len(taps)-1 kept between pushes
	k     int       // inputs consumed so far
	next  int       // next output sample to emit
}

// NewStreamingFIR prepares a streaming application of f over an n-sample
// signal.
func NewStreamingFIR(f *FIRFilter, n int) *StreamingFIR {
	return &StreamingFIR{taps: f.Taps, delay: f.Delay(), n: n}
}

// Push consumes the next run of input samples in order, appending any output
// samples that become computable to out and returning the extended slice.
// Output sample i needs input i+delay, so Push lags the input by the group
// delay; Finish flushes the tail.  The window is sized on the first push
// and grows only for a longer chunk, so pushes of steady-size chunks into a
// pre-sized out allocate nothing.
func (s *StreamingFIR) Push(x []float64, out []float64) []float64 {
	if s.n == 0 {
		return out
	}
	if s.win == nil {
		s.win = make([]float64, 0, len(s.taps)-1+len(x))
	}
	s.win = append(s.win, x...)
	s.k += len(x)
	out = s.emit(min(s.k-s.delay, s.n), out)
	// Keep the history the next output reads: inputs from k-(len(taps)-1).
	if keep := len(s.taps) - 1; len(s.win) > keep {
		s.win = s.win[:copy(s.win, s.win[len(s.win)-keep:])]
	}
	return out
}

// Finish emits the remaining tail outputs (those whose center index lies
// beyond the last input, where Apply reads zeros past the end) after all n
// inputs have been pushed.
func (s *StreamingFIR) Finish(out []float64) []float64 {
	return s.emit(s.n, out)
}

// emit appends outputs [next, end) to out, computed by Apply's kernel over
// the window.
func (s *StreamingFIR) emit(end int, out []float64) []float64 {
	if end <= s.next {
		return out
	}
	start := len(out)
	out = slices.Grow(out, end-s.next)[:start+end-s.next]
	firKernel(out[start:], s.taps, s.win, s.n, s.k-len(s.win), s.next)
	s.next = end
	return out
}

// StreamingIntegrator computes the cumulative trapezoidal integral of a
// signal delivered sample by sample, mirroring Integrate's loop exactly.
type StreamingIntegrator struct {
	half, prev, acc float64
}

// NewStreamingIntegrator returns an integrator for sample interval dt.
func NewStreamingIntegrator(dt float64) *StreamingIntegrator {
	return &StreamingIntegrator{half: dt / 2}
}

// Next consumes the next sample and returns the integral through it.
func (g *StreamingIntegrator) Next(v float64) float64 {
	g.acc += (g.prev + v) * g.half
	g.prev = v
	return g.acc
}

// PeakTracker tracks the absolute maximum of a streamed signal with
// AbsMax's exact comparison semantics (first occurrence wins on ties via
// strict greater-than, NaN handling included).
type PeakTracker struct {
	peak float64
	idx  int
	seen bool
}

// Observe considers sample v at position i; positions must arrive in order.
func (p *PeakTracker) Observe(i int, v float64) {
	a := v
	if a < 0 {
		a = -a
	}
	if a > p.peak || !p.seen {
		p.peak, p.idx = a, i
	}
	p.seen = true
}

// Peak returns the tracked maximum and its index ((0, -1) if no samples).
func (p *PeakTracker) Peak() (float64, int) {
	if !p.seen {
		return 0, -1
	}
	return p.peak, p.idx
}
