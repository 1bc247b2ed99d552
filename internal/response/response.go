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
	if c.Damping <= 0 || c.Damping >= 1 {
		return fmt.Errorf("response: damping %g outside (0,1)", c.Damping)
	}
	if len(c.Periods) == 0 {
		return fmt.Errorf("response: empty period grid")
	}
	for i, p := range c.Periods {
		if p <= 0 {
			return fmt.Errorf("response: period %d is %g, want > 0", i, p)
		}
		if i > 0 && p <= c.Periods[i-1] {
			return fmt.Errorf("response: period grid not strictly increasing at %d", i)
		}
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
	if period <= 0 {
		return 0, 0, 0, fmt.Errorf("response: period %g must be positive", period)
	}
	if damping <= 0 || damping >= 1 {
		return 0, 0, 0, fmt.Errorf("response: damping %g outside (0,1)", damping)
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
// from the closed-form derivative kernel (a second convolution folded into
// the same pass), keeping a single history loop.
func duhamel(a []float64, dt, period, xi float64) (sd, sv, sa float64) {
	n := len(a)
	return duhamelWith(a, dt, period, xi, make([]float64, n), make([]float64, n))
}

// duhamelWith is duhamel with caller-provided kernel scratch (len(a) each),
// letting Spectrum reuse two buffers across its whole period grid.
func duhamelWith(a []float64, dt, period, xi float64, h, hv []float64) (sd, sv, sa float64) {
	n := len(a)
	w := 2 * math.Pi / period
	wd := w * math.Sqrt(1-xi*xi)

	// Precompute kernel tables h[k] = e^{-xi w k dt} sin(wd k dt) and the
	// velocity kernel hv[k] = d/dt of the displacement kernel.  The legacy
	// cost profile comes from the O(D²) accumulation below, not from
	// recomputing transcendentals, so tabulating them is faithful.
	for k := 0; k < n; k++ {
		tk := float64(k) * dt
		e := math.Exp(-xi * w * tk)
		s, c := math.Sincos(wd * tk)
		h[k] = e * s
		hv[k] = e * (wd*c - xi*w*s)
	}
	scale := -dt / wd
	for i := 0; i < n; i++ {
		var du, dv float64
		for j := 0; j <= i; j++ {
			aj := a[j]
			du += aj * h[i-j]
			dv += aj * hv[i-j]
		}
		u := scale * du
		v := scale * dv
		if au := math.Abs(u); au > sd {
			sd = au
		}
		if av := math.Abs(v); av > sv {
			sv = av
		}
		// Absolute acceleration from the equation of motion.
		if aa := math.Abs(-(2*xi*w*v + w*w*u)); aa > sa {
			sa = aa
		}
	}
	return sd, sv, sa
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
