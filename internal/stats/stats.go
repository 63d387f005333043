// Package stats provides the small statistical toolkit used by the
// benchmark harness: running mean/variance (Welford), 95% confidence
// intervals (the paper reports 95% CIs on all results), and sample series
// with percentiles.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates mean and variance in a single pass, numerically
// stably. The zero value is an empty accumulator ready for use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for fewer than 2 points).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI95 returns the half-width of the 95% confidence interval of the mean,
// using Student's t quantile for the observed sample size.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return tQuantile95(w.n-1) * w.StdErr()
}

// String implements fmt.Stringer as "mean ± ci95 (n=..)".
func (w *Welford) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", w.Mean(), w.CI95(), w.N())
}

// tQuantile95 returns the two-sided 95% Student-t quantile for df degrees
// of freedom. Exact table for small df, asymptotic 1.96 beyond.
func tQuantile95(df int64) float64 {
	// Two-sided 0.95 quantiles, df = 1..30.
	table := [...]float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df <= 0:
		return 0
	case df <= int64(len(table)):
		return table[df-1]
	case df <= 60:
		return 2.00
	case df <= 120:
		return 1.98
	default:
		return 1.96
	}
}

// Series collects raw samples for percentile queries. Unlike Welford it
// retains all points; use it for latency distributions.
type Series struct {
	xs     []float64
	sorted bool
}

// Add appends one sample.
func (s *Series) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of samples.
func (s *Series) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

func (s *Series) sortInPlace() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation between closest ranks. Returns 0 when empty.
func (s *Series) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortInPlace()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Series) Median() float64 { return s.Percentile(50) }
