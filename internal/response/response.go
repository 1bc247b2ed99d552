// Package response computes elastic response spectra — the pipeline's
// process #16 and, per the paper, the dominant computational stage (stage
// IX, 57.2% of the sequential runtime).
//
// Two methods are provided:
//
//   - Duhamel: direct evaluation of the Duhamel convolution integral, the
//     O(periods × D²) formulation of the legacy Fortran code (the paper
//     reports a sequential complexity of O(9000 × N × D²)).  This is the
//     method the benchmark harness uses to reproduce the paper's workload
//     shape.
//
//   - NigamJennings: the exact piecewise-linear recursion of Nigam &
//     Jennings (1969), O(periods × D).  This is the method a modern
//     implementation would use; it appears in the evaluation as the
//     algorithmic ablation against the parallelized legacy method.
//
// For each single-degree-of-freedom oscillator (natural period T, damping
// ratio xi) excited by ground acceleration a(t), the spectra report
//
//	SD = max |u(t)|            relative displacement, cm
//	SV = max |u'(t)|           relative velocity, cm/s
//	SA = max |u''(t) + a(t)|   absolute acceleration, gal
//
// computed via the equation of motion u” + 2 xi w u' + w^2 u = -a(t), so
// u” + a = -(2 xi w u' + w^2 u).
package response

import (
	"fmt"
	"math"

	"accelproc/internal/seismic"
	"accelproc/internal/smformat"
)

// Method selects the response-spectrum algorithm.
type Method int

const (
	// Duhamel is the legacy O(D²)-per-period convolution method.
	Duhamel Method = iota
	// NigamJennings is the exact O(D)-per-period recursive method.
	NigamJennings
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case Duhamel:
		return "duhamel"
	case NigamJennings:
		return "nigam-jennings"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod maps a command-line spelling to a Method: duhamel (legacy),
// or nj / nigam-jennings (fast).
func ParseMethod(name string) (Method, error) {
	switch name {
	case "duhamel":
		return Duhamel, nil
	case "nj", "nigam-jennings":
		return NigamJennings, nil
	default:
		return 0, fmt.Errorf("response: unknown method %q (want duhamel or nj)", name)
	}
}

// Config parameterizes a response-spectrum computation.
type Config struct {
	Method  Method
	Damping float64   // damping ratio; zero selects 0.05 (5% of critical)
	Periods []float64 // strictly increasing period grid (s); nil selects DefaultPeriods()
}

func (c Config) withDefaults() Config {
	if c.Damping == 0 {
		c.Damping = 0.05
	}
	if c.Periods == nil {
		c.Periods = DefaultPeriods()
	}
	return c
}

// Validate reports configurations the solvers cannot honor.
func (c Config) Validate() error {
	if err := checkDamping(c.Damping); err != nil {
		return err
	}
	if len(c.Periods) == 0 {
		return fmt.Errorf("response: empty period grid")
	}
	for i, p := range c.Periods {
		if err := checkPeriod(p); err != nil {
			return fmt.Errorf("response: period %d: %w", i, err)
		}
		if i > 0 && p <= c.Periods[i-1] {
			return fmt.Errorf("response: period grid not strictly increasing at %d", i)
		}
	}
	return nil
}

// checkDamping rejects a damping ratio outside (0,1), NaN included.
func checkDamping(d float64) error {
	if !(d > 0 && d < 1) {
		return fmt.Errorf("response: damping %g outside (0,1)", d)
	}
	return nil
}

// checkPeriod rejects a period that is not positive and finite, NaN included.
func checkPeriod(p float64) error {
	if !(p > 0) || math.IsInf(p, 1) {
		return fmt.Errorf("response: period %g must be positive and finite", p)
	}
	return nil
}

// DefaultPeriods returns the standard log-spaced engineering period grid
// from 0.02 s to 20 s (the span of the paper's Figure 4), 91 points at
// 30 per decade.
func DefaultPeriods() []float64 {
	return LogPeriods(0.02, 20, 91)
}

// LogPeriods returns n log-spaced periods from lo to hi inclusive.
func LogPeriods(lo, hi float64, n int) []float64 {
	if n <= 1 || lo <= 0 || hi <= lo {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := math.Log(hi / lo)
	for i := range out {
		out[i] = lo * math.Exp(ratio*float64(i)/float64(n-1))
	}
	return out
}

// Spectrum computes the elastic response spectra of one corrected component
// and returns the payload of an R file.
func Spectrum(v smformat.V2, cfg Config) (smformat.Response, error) {
	if err := v.Validate(); err != nil {
		return smformat.Response{}, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return smformat.Response{}, err
	}
	r := smformat.Response{
		Station:   v.Station,
		Component: v.Component,
		Damping:   cfg.Damping,
		Periods:   append([]float64(nil), cfg.Periods...),
		SA:        make([]float64, len(cfg.Periods)),
		SV:        make([]float64, len(cfg.Periods)),
		SD:        make([]float64, len(cfg.Periods)),
	}
	var h, hv []float64
	if cfg.Method != NigamJennings {
		// The Duhamel kernel tables are period-dependent but their storage
		// is not: hoist the two record-length buffers out of the period loop.
		h = make([]float64, len(v.Accel))
		hv = make([]float64, len(v.Accel))
	}
	for i, T := range cfg.Periods {
		var sd, sv, sa float64
		switch cfg.Method {
		case NigamJennings:
			sd, sv, sa = nigamJennings(v.Accel, v.DT, T, cfg.Damping)
		default:
			sd, sv, sa = duhamelWith(v.Accel, v.DT, T, cfg.Damping, h, hv)
		}
		r.SD[i], r.SV[i], r.SA[i] = sd, sv, sa
	}
	if err := r.Validate(); err != nil {
		return smformat.Response{}, err
	}
	return r, nil
}

// Oscillator computes the spectra of a bare acceleration trace at a single
// period, exposed for tests and for callers that need one oscillator only.
func Oscillator(accel seismic.Trace, period, damping float64, m Method) (sd, sv, sa float64, err error) {
	if err := accel.Validate(); err != nil {
		return 0, 0, 0, err
	}
	if err := checkPeriod(period); err != nil {
		return 0, 0, 0, err
	}
	if err := checkDamping(damping); err != nil {
		return 0, 0, 0, err
	}
	if m == NigamJennings {
		sd, sv, sa = nigamJennings(accel.Data, accel.DT, period, damping)
	} else {
		sd, sv, sa = duhamel(accel.Data, accel.DT, period, damping)
	}
	return sd, sv, sa, nil
}

// duhamel evaluates the Duhamel integral by direct convolution: for every
// output sample the full history is re-summed, reproducing the O(D²) cost
// per period of the legacy implementation.  Relative velocity is obtained
// from the closed-form derivative kernel, a second convolution over the
// same history.
func duhamel(a []float64, dt, period, xi float64) (sd, sv, sa float64) {
	n := len(a)
	return duhamelWith(a, dt, period, xi, make([]float64, n), make([]float64, n))
}

// duhamelWith is duhamel with caller-provided kernel scratch (len(a) each),
// letting Spectrum reuse two buffers across its whole period grid.
//
// Output i sums a[j]*h[i-j] over j = 0..i.  The kernel tables are stored
// reversed, hr[n-1-k] = h[k], so output i reads hr[n-1-i+j] alongside a[j]
// and both walk forward.  Outputs are computed four at a time, each in its
// own accumulator, so one pass over the shared history j = 0..i feeds four
// independent add chains; outputs i+1..i+3 then add their private tails
// j = i+1..i+q.  Every sum keeps the ascending-j order of a one-output-at-
// a-time loop, so the spectra are bit-identical to it.  Products that meet
// an addition here and in conv4 and dotFrom are explicit float64
// conversions, which the Go spec forbids fusing into a multiply-add, so
// every architecture rounds them like the reference loop.
func duhamelWith(a []float64, dt, period, xi float64, hr, hvr []float64) (sd, sv, sa float64) {
	n := len(a)
	w := 2 * math.Pi / period
	wd := w * math.Sqrt(1-float64(xi*xi))

	// Precompute kernel tables h[k] = e^{-xi w k dt} sin(wd k dt) and the
	// velocity kernel hv[k] = d/dt of the displacement kernel.  The legacy
	// cost profile comes from the O(D²) accumulation below, not from
	// recomputing transcendentals, so tabulating them is faithful.
	for k := 0; k < n; k++ {
		tk := float64(k) * dt
		e := math.Exp(-xi * w * tk)
		s, c := math.Sincos(wd * tk)
		hr[n-1-k] = e * s
		hvr[n-1-k] = e * (float64(wd*c) - float64(xi*w*s))
	}
	scale := -dt / wd
	peak := func(du, dv float64) {
		u := scale * du
		v := scale * dv
		if au := math.Abs(u); au > sd {
			sd = au
		}
		if av := math.Abs(v); av > sv {
			sv = av
		}
		// Absolute acceleration from the equation of motion.
		if aa := math.Abs(-(float64(2*xi*w*v) + float64(w*w*u))); aa > sa {
			sa = aa
		}
	}
	// tail returns acc plus output p's terms j = lo..p of kernel table r.
	tail := func(acc float64, r []float64, p, lo int) float64 {
		return dotFrom(acc, a[:p+1], r[n-1-p:], lo)
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		u0, u1, u2, u3 := conv4(a[:i+1], hr[n-4-i:])
		v0, v1, v2, v3 := conv4(a[:i+1], hvr[n-4-i:])
		peak(u0, v0)
		peak(tail(u1, hr, i+1, i+1), tail(v1, hvr, i+1, i+1))
		peak(tail(u2, hr, i+2, i+1), tail(v2, hvr, i+2, i+1))
		peak(tail(u3, hr, i+3, i+1), tail(v3, hvr, i+3, i+1))
	}
	for ; i < n; i++ {
		peak(tail(0, hr, i, 0), tail(0, hvr, i, 0))
	}
	return sd, sv, sa
}

// conv4 returns the shared-history sums of four consecutive outputs,
//
//	s_q = sum_{j=0}^{len(as)-1} as[j] * r[j+3-q],  q = 0..3,
//
// each added in ascending j.  r holds len(as)+3 reversed kernel values, so
// each step loads one new kernel value and the other three rotate down a
// register.  The main loop takes four steps per trip and loads each new
// value into the register whose value no output needs any more, so the
// rotation is a renaming and costs no copies.  It is kept out of line so
// that its loop gets the registers to itself rather than sharing them with
// duhamelWith's block bookkeeping: inlined there, it ran no faster than
// the one-output loop.
//
//go:noinline
func conv4(as, r []float64) (s0, s1, s2, s3 float64) {
	k3, k2, k1 := r[0], r[1], r[2]
	r = r[3 : 3+len(as)]
	j := 0
	for ; j+4 <= len(as); j += 4 {
		a, k := as[j:j+4:j+4], r[j:j+4:j+4]
		k0 := k[0]
		s0 += float64(a[0] * k0)
		s1 += float64(a[0] * k1)
		s2 += float64(a[0] * k2)
		s3 += float64(a[0] * k3)
		k3 = k[1]
		s0 += float64(a[1] * k3)
		s1 += float64(a[1] * k0)
		s2 += float64(a[1] * k1)
		s3 += float64(a[1] * k2)
		k2 = k[2]
		s0 += float64(a[2] * k2)
		s1 += float64(a[2] * k3)
		s2 += float64(a[2] * k0)
		s3 += float64(a[2] * k1)
		k1 = k[3]
		s0 += float64(a[3] * k1)
		s1 += float64(a[3] * k2)
		s2 += float64(a[3] * k3)
		s3 += float64(a[3] * k0)
		// k1, k2, k3 hold r[j+3], r[j+2], r[j+1]: the rotation's order.
	}
	for ; j < len(as); j++ {
		aj, k0 := as[j], r[j]
		s0 += float64(aj * k0)
		s1 += float64(aj * k1)
		s2 += float64(aj * k2)
		s3 += float64(aj * k3)
		k1, k2, k3 = k0, k1, k2
	}
	return s0, s1, s2, s3
}

// dotFrom returns acc + sum_{j=lo}^{len(as)-1} as[j]*r[j], added in
// ascending j; an empty range returns acc unchanged.
func dotFrom(acc float64, as, r []float64, lo int) float64 {
	r = r[:len(as)]
	for j := lo; j < len(as); j++ {
		acc += float64(as[j] * r[j])
	}
	return acc
}

// nigamJennings advances the oscillator with the exact solution for
// piecewise-linear ground acceleration (Nigam & Jennings, 1969).
func nigamJennings(a []float64, dt, period, xi float64) (sd, sv, sa float64) {
	n := len(a)
	w := 2 * math.Pi / period
	w2 := w * w
	wd := w * math.Sqrt(1-xi*xi)

	e := math.Exp(-xi * w * dt)
	s, c := math.Sincos(wd * dt)

	// Recurrence coefficients (standard Nigam-Jennings formulation).
	a11 := e * (c + xi*w/wd*s)
	a12 := e / wd * s
	a21 := -w2 * a12
	a22 := e * (c - xi*w/wd*s)

	t1 := (2*xi*xi - 1) / (w2 * dt)
	t2 := 2 * xi / (w2 * w * dt)

	b11 := e*(s*(t1+xi/w)/wd+c*(t2+1/w2)) - t2
	b12 := -e*(s*t1/wd+c*t2) - 1/w2 + t2
	b21 := e*((t1+xi/w)*(c-xi*w/wd*s)-(t2+1/w2)*(wd*s+xi*w*c)) + 1/(w2*dt)
	b22 := -e*(t1*(c-xi*w/wd*s)-t2*(wd*s+xi*w*c)) - 1/(w2*dt)

	var u, v float64
	for i := 0; i < n; i++ {
		ai := a[i]
		var an float64 // next ground sample (hold the last value at the end)
		if i+1 < n {
			an = a[i+1]
		} else {
			an = ai
		}
		uNext := a11*u + a12*v + b11*ai + b12*an
		vNext := a21*u + a22*v + b21*ai + b22*an
		u, v = uNext, vNext
		if au := math.Abs(u); au > sd {
			sd = au
		}
		if av := math.Abs(v); av > sv {
			sv = av
		}
		if aa := math.Abs(-(2*xi*w*v + w2*u)); aa > sa {
			sa = aa
		}
	}
	return sd, sv, sa
}
