package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordMatchesDirectComputation(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%100) + 2
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
			w.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		variance := 0.0
		for _, x := range xs {
			variance += (x - mean) * (x - mean)
		}
		variance /= float64(n - 1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-variance) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.CI95() != 0 {
		t.Error("empty accumulator not zero")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 || w.CI95() != 0 {
		t.Error("single observation stats wrong")
	}
	if w.N() != 1 {
		t.Errorf("N = %d", w.N())
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var small, large Welford
	for i := 0; i < 10; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 1000; i++ {
		large.Add(rng.NormFloat64())
	}
	if large.CI95() >= small.CI95() {
		t.Errorf("CI did not shrink: n=10 %g vs n=1000 %g", small.CI95(), large.CI95())
	}
}

func TestTQuantileTable(t *testing.T) {
	cases := []struct {
		df   int64
		want float64
	}{{1, 12.706}, {5, 2.571}, {30, 2.042}, {50, 2.00}, {100, 1.98}, {1000, 1.96}}
	for _, c := range cases {
		if got := tQuantile95(c.df); got != c.want {
			t.Errorf("tQuantile95(%d) = %g, want %g", c.df, got, c.want)
		}
	}
}

func TestSeriesPercentiles(t *testing.T) {
	var s Series
	for i := 100; i >= 1; i-- { // reverse order on purpose
		s.Add(float64(i))
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Median = %g", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %g", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("P100 = %g", got)
	}
	if got := s.Percentile(99); got < 99 || got > 100 {
		t.Errorf("P99 = %g", got)
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %g", got)
	}
}

func TestSeriesPercentileMonotoneQuick(t *testing.T) {
	f := func(seed int64, p1, p2 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Series
		for i := 0; i < 50; i++ {
			s.Add(rng.Float64() * 100)
		}
		lo, hi := float64(p1%101), float64(p2%101)
		if lo > hi {
			lo, hi = hi, lo
		}
		return s.Percentile(lo) <= s.Percentile(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Median() != 0 || s.N() != 0 {
		t.Error("empty series not zero")
	}
}
