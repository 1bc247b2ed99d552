// Package dsp implements the signal-processing substrate required by the
// accelerographic pipeline: FFTs of arbitrary length, Hamming-window FIR
// band-pass filter design and application, detrending, and time-domain
// integration of acceleration into velocity and displacement.
//
// The legacy system the paper parallelizes performs these operations inside
// Fortran programs; here they are reimplemented from scratch on float64
// slices using only the standard library.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"runtime"
	"sync"
)

// FFT computes the in-place-free discrete Fourier transform of x and returns
// a new slice.  Any input length is supported: powers of two use an
// iterative radix-2 Cooley-Tukey kernel; other lengths fall back to
// Bluestein's chirp-z algorithm (which itself runs on the radix-2 kernel).
// An empty input yields an empty output.
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, false)
	return out
}

// IFFT computes the inverse DFT of x (including the 1/N normalization) and
// returns a new slice.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, true)
	return out
}

// FFTReal transforms a real-valued signal and returns the full complex
// spectrum of the same length.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	fftInPlace(c, false)
	return c
}

// FFTInto computes the DFT of x into the caller-provided dst and returns
// dst.  len(dst) must equal len(x); dst may alias x.  Power-of-two lengths
// allocate nothing; other lengths draw their convolution scratch from a
// pool, so steady-state repeated transforms are allocation-free.
func FFTInto(dst, x []complex128) []complex128 {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("dsp: FFTInto buffer length %d != signal length %d", len(dst), len(x)))
	}
	copy(dst, x)
	fftInPlace(dst, false)
	return dst
}

// IFFTInto computes the inverse DFT of x (including the 1/N normalization)
// into dst and returns dst, under the same aliasing and allocation contract
// as FFTInto.
func IFFTInto(dst, x []complex128) []complex128 {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("dsp: IFFTInto buffer length %d != signal length %d", len(dst), len(x)))
	}
	copy(dst, x)
	fftInPlace(dst, true)
	return dst
}

// FFTRealInto transforms a real-valued signal into the caller-provided
// complex buffer and returns it, under the same contract as FFTInto.
func FFTRealInto(dst []complex128, x []float64) []complex128 {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("dsp: FFTRealInto buffer length %d != signal length %d", len(dst), len(x)))
	}
	for i, v := range x {
		dst[i] = complex(v, 0)
	}
	fftInPlace(dst, false)
	return dst
}

// cxScratch pools complex work buffers.  The pipeline transforms many
// same-length signals back to back (three components per record, three
// spectra per component), so the steady state reuses one buffer instead of
// allocating a transform-sized slice per call.
var cxScratch sync.Pool // of *[]complex128

func getCx(n int) *[]complex128 {
	if v, ok := cxScratch.Get().(*[]complex128); ok && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	s := make([]complex128, n)
	return &s
}

func putCx(s *[]complex128) { cxScratch.Put(s) }

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if IsPow2(n) {
		radix2(x, inverse)
		return
	}
	bluestein(x, inverse)
}

// radix2 performs an iterative in-place Cooley-Tukey FFT.  len(x) must be a
// power of two.
func radix2(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		// Twiddle for this butterfly size.
		wStep := cmplx.Rect(1, step)
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// bluesteinTab holds the length-dependent constants of the chirp-z
// transform: the chirp sequence and the forward transform of the
// conjugate-chirp convolution filter.  Both depend only on (n, inverse), so
// they are built once per length and shared — record lengths repeat across
// components and stations, and rebuilding the filter spectrum costs two of
// the three radix-2 passes of a transform.
type bluesteinTab struct {
	key   bluesteinKey
	m     int          // power-of-two convolution length
	chirp []complex128 // w[k] = exp(sign*i*pi*k^2/n), length n
	bhat  []complex128 // forward FFT of the conjugate-chirp filter, length m
}

type bluesteinKey struct {
	n       int
	inverse bool
}

// bluesteinCap bounds the table cache.  A table holds about 80·n bytes, so
// an unbounded cache grows with every record length a long-lived process
// sees; the bound keeps the lengths the workers are transforming now (two
// per processor) plus a small working set.
var bluesteinCap = max(8, 2*runtime.GOMAXPROCS(0))

// bluesteinTabs is the table cache.  An evicted length is rebuilt by
// newBluesteinTab, so results do not depend on what is cached.
var bluesteinTabs tabCache

// tabCache is a most-recently-used list of at most bluesteinCap tables.
type tabCache struct {
	mu  sync.Mutex
	mru []*bluesteinTab // most recently used first
}

// get returns the table for key, moving it to the front, or nil.  The
// caller holds mu.
func (c *tabCache) get(key bluesteinKey) *bluesteinTab {
	for i, t := range c.mru {
		if t.key == key {
			copy(c.mru[1:i+1], c.mru[:i])
			c.mru[0] = t
			return t
		}
	}
	return nil
}

// bluesteinTabFor returns the table for (n, inverse), building it on a miss
// outside the lock and evicting the least recently used table when the
// cache is full.
func bluesteinTabFor(n int, inverse bool) *bluesteinTab {
	key := bluesteinKey{n, inverse}
	c := &bluesteinTabs
	c.mu.Lock()
	tab := c.get(key)
	c.mu.Unlock()
	if tab != nil {
		return tab
	}
	tab = newBluesteinTab(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.get(key); t != nil {
		return t // a concurrent builder landed first; its table is identical
	}
	if len(c.mru) < bluesteinCap {
		c.mru = append(c.mru, nil)
	}
	copy(c.mru[1:], c.mru)
	c.mru[0] = tab
	return tab
}

// newBluesteinTab builds the chirp and filter spectrum of one length.
func newBluesteinTab(key bluesteinKey) *bluesteinTab {
	n := key.n
	m := NextPow2(2*n - 1)
	sign := -1.0
	if key.inverse {
		sign = 1.0
	}
	// Chirp: w[k] = exp(sign * i*pi*k^2/n).  Compute k^2 mod 2n to keep the
	// angle argument small and the chirp numerically exact for large k.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		k2 := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(k2)/float64(n))
	}
	b := make([]complex128, m)
	b[0] = cmplx.Conj(chirp[0])
	for k := 1; k < n; k++ {
		c := cmplx.Conj(chirp[k])
		b[k] = c
		b[m-k] = c
	}
	radix2(b, false)
	return &bluesteinTab{key: key, m: m, chirp: chirp, bhat: b}
}

// bluestein computes an arbitrary-length DFT as a convolution, using
// power-of-two FFTs internally (chirp-z transform).  The chirp and filter
// constants come from the bounded per-length table cache and the
// convolution buffer from the scratch pool, so repeated transforms of cached
// lengths allocate nothing — the operation sequence (and hence the result,
// bit for bit) is unchanged from the uncached form.
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	tab := bluesteinTabFor(n, inverse)
	m := tab.m
	p := getCx(m)
	a := *p
	for k := 0; k < n; k++ {
		a[k] = x[k] * tab.chirp[k]
	}
	for k := n; k < m; k++ {
		a[k] = 0
	}
	radix2(a, false)
	for i := range a {
		a[i] *= tab.bhat[i]
	}
	radix2(a, true) // includes the 1/m inverse normalization
	for k := 0; k < n; k++ {
		x[k] = a[k] * tab.chirp[k]
	}
	putCx(p)
	if inverse {
		invN := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= invN
		}
	}
}

// AmplitudeSpectrum returns the single-sided amplitude spectrum of a real
// signal sampled at dt seconds: the first len(x)/2+1 FFT magnitudes scaled
// by dt (a discrete approximation of the continuous Fourier amplitude
// spectrum, the convention used for strong-motion Fourier spectra).
// It returns the amplitudes and the frequency step df in Hz.
func AmplitudeSpectrum(x []float64, dt float64) (amps []float64, df float64, err error) {
	if len(x) == 0 {
		return nil, 0, fmt.Errorf("dsp: amplitude spectrum of empty signal")
	}
	if dt <= 0 {
		return nil, 0, fmt.Errorf("dsp: non-positive sample interval %g", dt)
	}
	n := len(x)
	p := getCx(n)
	spec := FFTRealInto(*p, x)
	half := n/2 + 1
	amps = make([]float64, half)
	for i := 0; i < half; i++ {
		amps[i] = cmplx.Abs(spec[i]) * dt
	}
	putCx(p)
	df = 1 / (float64(n) * dt)
	return amps, df, nil
}
