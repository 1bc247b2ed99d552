package dsp

// Demean subtracts the arithmetic mean from x in place and returns the mean
// that was removed.
func Demean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	mean := sum / float64(len(x))
	for i := range x {
		x[i] -= mean
	}
	return mean
}

// Detrend removes the least-squares straight line from x in place and
// returns the removed intercept and slope (slope per sample).  Baseline
// correction of accelerograms starts with exactly this operation.
func Detrend(x []float64) (intercept, slope float64) {
	n := len(x)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		c := x[0]
		x[0] = 0
		return c, 0
	}
	// Closed-form simple linear regression against t = 0..n-1.
	var sumY, sumTY float64
	for i, v := range x {
		sumY += v
		sumTY += float64(i) * v
	}
	fn := float64(n)
	sumT := fn * (fn - 1) / 2
	sumT2 := (fn - 1) * fn * (2*fn - 1) / 6
	den := fn*sumT2 - sumT*sumT
	slope = (fn*sumTY - sumT*sumY) / den
	intercept = (sumY - slope*sumT) / fn
	for i := range x {
		x[i] -= intercept + slope*float64(i)
	}
	return intercept, slope
}

// Integrate computes the cumulative trapezoidal integral of x with sample
// interval dt, assuming the signal is zero before the first sample.  The
// result has the same length as x; result[0] is x[0]*dt/2 (the first
// half-trapezoid from the implicit leading zero).  Applying Integrate to an
// acceleration trace yields velocity; applying it again yields displacement.
func Integrate(x []float64, dt float64) []float64 {
	out := make([]float64, len(x))
	if len(x) == 0 {
		return out
	}
	half := dt / 2
	prev := 0.0
	acc := 0.0
	for i, v := range x {
		acc += (prev + v) * half
		out[i] = acc
		prev = v
	}
	return out
}

// Differentiate computes the first difference derivative of x with sample
// interval dt: out[0] = x[0]/dt (difference against the implicit leading
// zero) and out[i] = (x[i]-x[i-1])/dt.  It is the discrete inverse of the
// rectangle-rule integral and approximately inverts Integrate.
func Differentiate(x []float64, dt float64) []float64 {
	out := make([]float64, len(x))
	if len(x) == 0 {
		return out
	}
	out[0] = x[0] / dt
	for i := 1; i < len(x); i++ {
		out[i] = (x[i] - x[i-1]) / dt
	}
	return out
}

// AbsMax returns the maximum absolute value in x and its index; for an empty
// slice it returns (0, -1).  Peak ground motion values (PGA, PGV, PGD) are
// absolute maxima of the respective traces.
func AbsMax(x []float64) (peak float64, idx int) {
	idx = -1
	for i, v := range x {
		a := v
		if a < 0 {
			a = -a
		}
		if a > peak || idx == -1 {
			peak, idx = a, i
		}
	}
	if idx == -1 {
		return 0, -1
	}
	return peak, idx
}
