package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"modab"
)

// The tests keep the benchmark from rotting: every workload and the traced
// run at a fraction of their scale, the checker against deliberately wrong
// deliveries, the harness's determinism and self-time arithmetic, and
// BENCHMARK.json against the metric registry. They assert no timing.

func id(sender int, seq uint64) modab.MsgID {
	return modab.MsgID{Sender: modab.ProcessID(sender), Seq: seq}
}

// feed delivers order to every process of a fresh two-process checker,
// except that process 1 receives alt when it is non-nil.
func feed(order, alt []modab.MsgID) *checker {
	c := newChecker(2, false)
	for p := 0; p < 2; p++ {
		seq := order
		if p == 1 && alt != nil {
			seq = alt
		}
		for _, m := range seq {
			c.observe(p, m, 8)
		}
	}
	return c
}

func TestCheckerAcceptsACorrectRun(t *testing.T) {
	order := []modab.MsgID{id(0, 1), id(1, 1), id(0, 2), id(1, 2)}
	e := expectation{submitted: []int64{2, 2}, delivered: []int64{4, 4}}
	if err := feed(order, nil).verify(e); err != nil {
		t.Fatalf("correct run rejected: %v", err)
	}
}

func TestCheckerRejectsASwappedDelivery(t *testing.T) {
	order := []modab.MsgID{id(0, 1), id(1, 1), id(0, 2), id(1, 2)}
	swapped := []modab.MsgID{id(0, 1), id(0, 2), id(1, 1), id(1, 2)}
	e := expectation{submitted: []int64{2, 2}}
	err := feed(order, swapped).verify(e)
	if err == nil || !strings.Contains(err.Error(), "order differs") {
		t.Fatalf("swapped delivery not caught: %v", err)
	}
}

func TestCheckerRejectsADuplicatedDelivery(t *testing.T) {
	order := []modab.MsgID{id(0, 1), id(1, 1), id(0, 2)}
	dup := []modab.MsgID{id(0, 1), id(1, 1), id(0, 2), id(1, 1)}
	e := expectation{submitted: []int64{2, 1}}
	err := feed(order, dup).verify(e)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicated delivery not caught: %v", err)
	}
}

func TestCheckerRejectsGapsLossAndDivergedState(t *testing.T) {
	gap := []modab.MsgID{id(0, 1), id(0, 3)}
	if err := feed(gap, nil).verify(expectation{submitted: []int64{2, 0}}); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("gap not caught: %v", err)
	}
	one := []modab.MsgID{id(0, 1)}
	if err := feed(one, nil).verify(expectation{submitted: []int64{2, 0}}); err == nil || !strings.Contains(err.Error(), "submitted") {
		t.Errorf("lost message not caught: %v", err)
	}
	if err := feed(one, nil).verify(expectation{submitted: []int64{1, 0}, delivered: []int64{1, 0}}); err == nil || !strings.Contains(err.Error(), "counters") {
		t.Errorf("counter mismatch not caught: %v", err)
	}
	e := expectation{submitted: []int64{1, 0}, digests: [][]byte{[]byte("a"), []byte("b")}}
	if err := feed(one, nil).verify(e); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("diverged state not caught: %v", err)
	}
}

func TestCheckerHoldsARestartedProcessToTheOrder(t *testing.T) {
	full := []modab.MsgID{id(0, 1), id(1, 1), id(0, 2), id(1, 2)}
	run := func(victim []modab.MsgID) error {
		c := newChecker(2, true)
		for _, m := range victim {
			c.observe(0, m, 8)
		}
		for _, m := range full {
			c.observe(1, m, 8)
		}
		return c.verify(expectation{submitted: []int64{2, 2}, restarted: []bool{true, false}})
	}
	if err := run([]modab.MsgID{id(0, 1), id(1, 2)}); err != nil {
		t.Errorf("a restarted process may skip what a snapshot covered: %v", err)
	}
	if err := run([]modab.MsgID{id(1, 1), id(0, 1)}); err == nil {
		t.Error("a restarted process delivering out of order was accepted")
	}
}

func TestAbsentIsNeverZero(t *testing.T) {
	ms := newMetricSet()
	ms.put("modular.latency_p50_us", "us", 0, 0)
	if _, ok := ms.vals["modular.latency_p50_us"]; ok {
		t.Fatal("a metric with no samples was given a value")
	}
	res := &result{Metrics: ms.vals, Absent: ms.absent}
	if err := res.complete(workloads[0]); err == nil || !strings.Contains(err.Error(), "modular.latency_p50_us (no samples)") {
		t.Fatalf("a run with an absent metric passed: %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q, ok := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	want := [3]float64{3.5, 24, 160}
	if !ok || q != want {
		t.Fatalf("quartiles = %v, want %v", q, want)
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Fatal("quartiles of one value")
	}
}

func TestJudge(t *testing.T) {
	flat := func(v float64) side { return summarise([]float64{v, v, v, v}) }
	if v, _ := judge(flat(100), flat(105), false, 0.10); v != verdictOK {
		t.Errorf("5%% worse at a 10%% bound: %s", v)
	}
	if v, _ := judge(flat(100), flat(115), false, 0.10); v != verdictRegression {
		t.Errorf("15%% higher latency at a 10%% bound: %s", v)
	}
	if v, _ := judge(flat(100), flat(85), true, 0.10); v != verdictRegression {
		t.Errorf("15%% lower throughput at a 10%% bound: %s", v)
	}
	if v, _ := judge(flat(100), flat(85), false, 0.10); v != verdictOK {
		t.Errorf("an improvement: %s", v)
	}
	noisy := summarise([]float64{80, 90, 110, 120})
	if v, _ := judge(noisy, flat(200), false, 0.10); v != verdictUnresolved {
		t.Errorf("a side spread wider than the bound: %s", v)
	}
}

func TestCompareRefusesAnotherMachine(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, d descriptor) string {
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, resultFile{Descriptor: d}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", descriptor{CPU: "x", NProc: 2, GitSHA: "1", Seed: 1})
	b := write("b.json", descriptor{CPU: "y", NProc: 2, GitSHA: "2", Seed: 2})
	err := compareFiles(&bytes.Buffer{}, []string{a, b})
	if err == nil || !strings.Contains(err.Error(), "cpu: x vs y") {
		t.Fatalf("different machines compared: %v", err)
	}
	c := write("c.json", descriptor{CPU: "x", NProc: 2, GitSHA: "3", Seed: 9})
	if err := compareFiles(&bytes.Buffer{}, []string{a, c}); err != nil {
		t.Fatalf("same machine, other commit and seed: %v", err)
	}
}

// walDir returns a scratch directory where the benchmark itself would log:
// on tmpfs when there is one, so the tests do not wait for a disk's fsync.
func walDir(t *testing.T) string {
	dir, _, err := pickWALDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// small shrinks a workload's set-up for the tests.
func small(w workload) workload {
	w.warmOps /= 20
	if w.snapEvery > 0 {
		w.snapEvery = 64 // a snapshot must still precede the crash
	}
	return w
}

func TestWorkloadsAtSmallScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			seconds := 1.0
			if w.crash {
				seconds = 4 // the outage must outlast the failure detector's 200 ms
			}
			res, err := runWorkload(small(w), runConfig{seed: 7, seconds: seconds, walDir: walDir(t)})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d", res.Correct, res.Attempted)
			}
			if err := res.complete(w); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTracedRunAtSmallScale(t *testing.T) {
	// The three steady workloads, whose per-layer metric sets differ (n = 7
	// and the in-memory hop; TCP; WAL and state machine). The crash
	// scenario's reporting is the end-to-end run's, tested above.
	for _, w := range workloads[:3] {
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			res, err := runTraced(small(w), runConfig{seed: 7, seconds: 0.6, walDir: walDir(t), scale: 0.05}, out)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.complete(w); err != nil {
				t.Fatal(err)
			}
			for _, s := range stacks {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+"-"+stackName(s)+".json")); err != nil {
					t.Errorf("span file: %v", err)
				}
			}
		})
	}
}

// counts is everything in a harness result that must repeat for a seed.
func counts(hr *harnessResult) []any {
	return []any{hr.msgs, hr.counters, hr.decided, hr.walCalls, hr.calls, hr.spanTotal, hr.batchMsgs}
}

func TestHarnessCountsRepeatForASeed(t *testing.T) {
	for _, w := range []workload{workloads[0], workloads[1], workloads[3]} {
		for _, s := range stacks {
			hc := harnessConfig{w: w, stack: s, n: groupSize, msgs: 2000, seed: 11, walDir: walDir(t)}
			a, err := runHarness(hc)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, stackName(s), err)
			}
			b, err := runHarness(hc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(counts(a), counts(b)) {
				t.Errorf("%s %s: counts differ between two runs of one seed:\n%v\n%v", w.name, stackName(s), counts(a), counts(b))
			}
			hc.seed++
			c, err := runHarness(hc)
			if err != nil {
				t.Fatal(err)
			}
			if w.kv() && reflect.DeepEqual(a.counters, c.counters) {
				t.Errorf("%s %s: another seed gave identical counters", w.name, stackName(s))
			}
		}
	}
}

func TestSelfTimesSumToTheRootSpans(t *testing.T) {
	for _, s := range stacks {
		hr, err := runHarness(harnessConfig{w: workloads[2], stack: s, n: groupSize, msgs: 2000, seed: 3, walDir: walDir(t)})
		if err != nil {
			t.Fatal(err)
		}
		// Over the whole run: every span's self time, against the time
		// inside engine entry points.
		var self int64
		for name, ns := range hr.selfNs {
			if !strings.HasSuffix(name, ".start") {
				self += ns
			}
		}
		if diff := math.Abs(float64(self-hr.rootNs)) / float64(hr.rootNs); diff > 0.02 {
			t.Errorf("%s: self times sum to %d ns, root spans to %d ns (%.1f%% apart)", stackName(s), self, hr.rootNs, diff*100)
		}
		// Span by span, on the kept ones: a parent covers its children.
		covered := make([]int64, len(hr.spans))
		for _, sp := range hr.spans {
			if sp.End < sp.Start {
				t.Fatalf("span %s ends before it starts", sp.Name)
			}
			if sp.Parent >= 0 {
				covered[sp.Parent] += sp.End - sp.Start
			}
		}
		for i, sp := range hr.spans {
			if covered[i] > sp.End-sp.Start {
				t.Fatalf("span %d (%s): children cover %d ns of its %d ns", i, sp.Name, covered[i], sp.End-sp.Start)
			}
		}
	}
}

func TestBenchmarkJSONIsTheRegistrys(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the registry; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters (%d)", w.name, len(w.why))
		}
	}
	if n := len(expand(perLayer, metricDef.listed)); n > 128 {
		t.Errorf("%d per-layer metrics; a driver takes 128", n)
	}
	for _, d := range expand(endToEnd, metricDef.listed) {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
}
