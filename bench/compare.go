package main

import (
	"fmt"
	"io"
	"sort"
)

// quartiles returns the three cut points that Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), which is
// what a benchmark driver uses; ok is false with fewer than two values.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return q, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q, true
}

// side summarises one file's runs of one metric on one workload.
type side struct {
	n      int
	median float64
	q1, q3 float64
	spread float64 // (q3-q1)/median; 0 with a single run
}

func summarise(xs []float64) side {
	s := side{n: len(xs)}
	s.median, _ = median(xs)
	s.q1, s.q3 = s.median, s.median
	if q, ok := quartiles(xs); ok {
		s.q1, s.q3 = q[0], q[2]
		if s.median != 0 {
			s.spread = (s.q3 - s.q1) / s.median
		}
	}
	return s
}

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegression verdict = "REGRESSION"
	verdictUnresolved verdict = "unresolved"
	verdictMissing    verdict = "missing"
)

// judge applies bound to the two sides: unresolved when either side's own
// quartile spread exceeds the bound, a regression when the new median is
// worse than the old by more than the bound.
func judge(old, new side, higher bool, bound float64) (verdict, float64) {
	if old.n == 0 || new.n == 0 {
		return verdictMissing, 0
	}
	worse := (new.median - old.median) / old.median
	if higher {
		worse = -worse
	}
	switch {
	case old.spread > bound || new.spread > bound:
		return verdictUnresolved, worse
	case worse > bound:
		return verdictRegression, worse
	}
	return verdictOK, worse
}

// compareFiles implements -compare old.json new.json. It returns an error
// when an end-to-end metric regressed, or when the files cannot be compared.
func compareFiles(out io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two result files: old.json new.json")
	}
	old, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	new, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	if diff := old.Descriptor.sameMachine(new.Descriptor); len(diff) > 0 {
		return fmt.Errorf("refusing to compare runs from different machines or settings: %v", diff)
	}
	collect := func(rf resultFile, w string) map[string][]float64 {
		vals := map[string][]float64{}
		for _, r := range rf.Results {
			if r.Workload == w && !r.Traced {
				for n, v := range r.Metrics {
					vals[n] = append(vals[n], v.Value)
				}
			}
		}
		return vals
	}
	regressions := 0
	for _, w := range workloads {
		ov, nv := collect(old, w.name), collect(new, w.name)
		if len(ov) == 0 && len(nv) == 0 {
			continue
		}
		fmt.Fprintf(out, "%s\n", w.name)
		fmt.Fprintf(out, "  %-36s %-7s %38s %38s %8s  %s\n", "metric", "unit", "old median [q1, q3] (n)", "new median [q1, q3] (n)", "worse", "verdict")
		for _, d := range expand(endToEnd, func(d metricDef) bool { return d.applies(w) }) {
			o, n := summarise(ov[d.name]), summarise(nv[d.name])
			v, worse := judge(o, n, d.higher, d.bound)
			if v == verdictRegression {
				regressions++
			}
			cell := func(s side) string {
				if s.n == 0 {
					return "absent"
				}
				return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.median, s.q1, s.q3, s.n)
			}
			fmt.Fprintf(out, "  %-36s %-7s %38s %38s %+7.1f%%  %s (bound %.0f%%)\n", d.name, d.unit, cell(o), cell(n), worse*100, v, d.bound*100)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressions)
	}
	return nil
}
