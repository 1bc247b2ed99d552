package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// summary is the reported form of one sampled series: the median, the
// distance between the first and third quartiles, and the sample count.
type summary struct {
	Median, IQR float64
	N           int
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (the
// exclusive method, extrapolating at the ends of small samples), the rule
// the benchmark's bounds are checked with.  A single sample is all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// quantile interpolates sorted xs at fraction p over the n+1 positions of
// the exclusive method, clamped to the extreme samples.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	pos := p*float64(n+1) - 1 // zero-based
	switch {
	case pos <= 0:
		return sorted[0]
	case pos >= float64(n-1):
		return sorted[n-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{Median: q2, IQR: q3 - q1, N: len(xs)}
}

// tailQuantile returns the highest of p99, p90 and p75 that has at least ten
// samples beyond it, with its label; ok is false when even p75 has fewer
// (n < 40), and then no tail is reported.
func tailQuantile(xs []float64) (label string, v float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, q := range []struct {
		label string
		p     float64
	}{{"p99", 0.99}, {"p90", 0.90}, {"p75", 0.75}} {
		v := quantile(s, q.p)
		if beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v }); beyond >= 10 {
			return q.label, v, true
		}
	}
	return "", 0, false
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark (VmHWM) at
// the current RSS, so the peak read later covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM from /proc/self/status.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
