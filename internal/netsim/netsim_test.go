package netsim

import (
	"math"
	"testing"
	"time"

	"modab/internal/analytical"
	"modab/internal/engine"
	"modab/internal/types"
)

// TestDeterminism: identical options and seed must yield bit-identical
// traces (counters, latency, throughput).
func TestDeterminism(t *testing.T) {
	run := func() (float64, float64, int64, int64) {
		lc, err := NewLoadedCluster(Options{N: 3, Stack: types.Modular, Seed: 11},
			Workload{OfferedLoad: 1500, Size: 4096}, time.Second, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		lc.Run(4 * time.Second)
		tot := lc.TotalCounters()
		return lc.Recorder.MeanLatency(), lc.Recorder.Throughput(), tot.MsgsSent, tot.BytesSent
	}
	l1, t1, m1, b1 := run()
	l2, t2, m2, b2 := run()
	if l1 != l2 || t1 != t2 || m1 != m2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%v,%v,%d,%d) vs (%v,%v,%d,%d)", l1, t1, m1, b1, l2, t2, m2, b2)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed int64) int64 {
		lc, err := NewLoadedCluster(Options{N: 3, Stack: types.Monolithic, Seed: seed},
			Workload{OfferedLoad: 1000, Size: 1024}, time.Second, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		lc.Run(3 * time.Second)
		return lc.TotalCounters().BytesSent
	}
	if run(1) == run(2) {
		t.Skip("seeds coincidentally identical byte counts; acceptable but unusual")
	}
}

// TestAnalyticalMessageCountsExact pins §5.2.1 under saturation: the
// measured messages per decided instance equal the closed forms —
// (n-1)(M+2+⌊(n+1)/2⌋) for modular (with the measured M), 2(n-1) for
// monolithic.
func TestAnalyticalMessageCountsExact(t *testing.T) {
	for _, n := range []int{3, 7} {
		for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
			lc, err := NewLoadedCluster(Options{N: n, Stack: stk, Seed: 5},
				Workload{OfferedLoad: 4000, Size: 16384}, 2*time.Second, 4*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			lc.Run(7 * time.Second)
			if errs := lc.Errs(); len(errs) > 0 {
				t.Fatalf("engine errors: %v", errs[0])
			}
			tot := lc.TotalCounters()
			decisions := float64(tot.ConsensusDecided) / float64(n)
			perDec := float64(tot.MsgsSent) / decisions
			m := tot.AvgBatch()
			var want float64
			switch stk {
			case types.Modular:
				want = float64(n-1) * (m + 2 + float64((n+1)/2))
			case types.Monolithic:
				want = float64(analytical.MonolithicMessages(n))
			}
			if math.Abs(perDec-want)/want > 0.02 {
				t.Errorf("n=%d %s: %.2f msgs/decision, analytical %.2f (M=%.2f)",
					n, stk, perDec, want, m)
			}
		}
	}
}

// TestAnalyticalDataVolume pins §5.2.2: payload bytes per instance track
// the closed forms 2(n-1)M·l (modular) and at most (n-1)(1+1/n)M·l
// (monolithic; the coordinator's own above-average share only lowers it).
func TestAnalyticalDataVolume(t *testing.T) {
	const l = 16384
	for _, n := range []int{3, 7} {
		for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
			lc, err := NewLoadedCluster(Options{N: n, Stack: stk, Seed: 5},
				Workload{OfferedLoad: 4000, Size: l}, 2*time.Second, 4*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			lc.Run(7 * time.Second)
			tot := lc.TotalCounters()
			decisions := float64(tot.ConsensusDecided) / float64(n)
			perDec := float64(tot.PayloadBytesSent) / decisions
			m := tot.AvgBatch()
			switch stk {
			case types.Modular:
				want := 2 * float64(n-1) * m * l
				if math.Abs(perDec-want)/want > 0.03 {
					t.Errorf("n=%d modular: %.0f payload B/decision, analytical %.0f", n, perDec, want)
				}
			case types.Monolithic:
				upper := float64(n-1) * (1 + 1/float64(n)) * m * l
				lower := float64(n-1) * m * l // proposal fan-out alone
				if perDec > upper*1.03 || perDec < lower*0.97 {
					t.Errorf("n=%d monolithic: %.0f payload B/decision outside [%.0f, %.0f]",
						n, perDec, lower, upper)
				}
			}
		}
	}
}

// TestModularOverheadDirection asserts the paper's headline orderings at
// saturation: monolithic sustains higher throughput and no worse latency,
// and the modular stack moves at least 40% more payload bytes.
func TestModularOverheadDirection(t *testing.T) {
	type res struct{ lat, thr, bytesPerDec float64 }
	measure := func(n int, stk types.Stack) res {
		lc, err := NewLoadedCluster(Options{N: n, Stack: stk, Seed: 9},
			Workload{OfferedLoad: 5000, Size: 16384}, 2*time.Second, 4*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		lc.Run(7 * time.Second)
		tot := lc.TotalCounters()
		dec := float64(tot.ConsensusDecided) / float64(n)
		return res{lc.Recorder.MeanLatency(), lc.Recorder.Throughput(),
			float64(tot.PayloadBytesSent) / dec / tot.AvgBatch()}
	}
	for _, n := range []int{3, 7} {
		mod, mono := measure(n, types.Modular), measure(n, types.Monolithic)
		if mono.thr <= mod.thr {
			t.Errorf("n=%d: monolithic throughput %.0f <= modular %.0f", n, mono.thr, mod.thr)
		}
		if mono.lat > mod.lat*1.05 {
			t.Errorf("n=%d: monolithic latency %.2fms worse than modular %.2fms",
				n, mono.lat*1e3, mod.lat*1e3)
		}
		if mod.bytesPerDec < 1.4*mono.bytesPerDec {
			t.Errorf("n=%d: modular data per message %.0f not >= 1.4x monolithic %.0f",
				n, mod.bytesPerDec, mono.bytesPerDec)
		}
	}
}

// TestCrashUnderLoadPreservesTotalOrder crashes the round-1 coordinator
// mid-run; survivors must keep a single total order and keep delivering.
func TestCrashUnderLoadPreservesTotalOrder(t *testing.T) {
	for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
		t.Run(stk.String(), func(t *testing.T) {
			const n = 5
			col := newCollector(n)
			c, err := NewCluster(Options{N: n, Stack: stk, Seed: 3, OnDeliver: col.onDeliver})
			if err != nil {
				t.Fatal(err)
			}
			rec := NewRecorder(n, 0, time.Hour)
			InstallWorkload(c, Workload{OfferedLoad: 800, Size: 512, End: 3 * time.Second}, rec)
			c.Crash(0, 900*time.Millisecond)
			c.Run(10 * time.Second)
			if errs := c.Errs(); len(errs) > 0 {
				t.Fatalf("engine errors: %v", errs[0])
			}
			// Survivors agree on a common prefix (p0's log stops early).
			ref := col.orders[1]
			if len(ref) == 0 {
				t.Fatal("no deliveries at survivors")
			}
			for p := 2; p < n; p++ {
				got := col.orders[p]
				m := len(ref)
				if len(got) < m {
					m = len(got)
				}
				for i := 0; i < m; i++ {
					if got[i] != ref[i] {
						t.Fatalf("order violation at %d: %v vs %v", i, ref[i], got[i])
					}
				}
			}
			// Progress after the crash: deliveries include post-crash
			// abcasts (the workload runs to 3s, crash at 0.9s).
			postCrash := 0
			for _, id := range ref {
				if id.Sender != 0 {
					postCrash++
				}
			}
			if postCrash == 0 {
				t.Fatal("no survivor messages delivered after crash")
			}
		})
	}
}

// TestWrongSuspicionIsHarmless injects a transient wrong suspicion of the
// coordinator; safety and liveness must be unaffected.
func TestWrongSuspicionIsHarmless(t *testing.T) {
	for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
		t.Run(stk.String(), func(t *testing.T) {
			const n = 3
			col := newCollector(n)
			c, err := NewCluster(Options{N: n, Stack: stk, Seed: 8, OnDeliver: col.onDeliver})
			if err != nil {
				t.Fatal(err)
			}
			rec := NewRecorder(n, 0, time.Hour)
			InstallWorkload(c, Workload{OfferedLoad: 600, Size: 256, End: 2 * time.Second}, rec)
			// p2 wrongly suspects the coordinator for 300ms mid-run.
			c.SuspectWindow(1, 0, 700*time.Millisecond, 300*time.Millisecond)
			c.Run(8 * time.Second)
			if errs := c.Errs(); len(errs) > 0 {
				t.Fatalf("engine errors: %v", errs[0])
			}
			col.checkTotalOrder(t)
			if len(col.orders[0]) == 0 {
				t.Fatal("nothing delivered")
			}
		})
	}
}

// TestThroughputTracksOfferedLoadBelowSaturation: below the plateau the
// system delivers what is offered (Fig 10's left side).
func TestThroughputTracksOfferedLoadBelowSaturation(t *testing.T) {
	for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
		lc, err := NewLoadedCluster(Options{N: 3, Stack: stk, Seed: 2},
			Workload{OfferedLoad: 300, Size: 16384}, time.Second, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		lc.Run(5 * time.Second)
		thr := lc.Recorder.Throughput()
		if math.Abs(thr-300)/300 > 0.05 {
			t.Errorf("%s: throughput %.1f, offered 300", stk, thr)
		}
		if lc.Recorder.Blocked != 0 {
			t.Errorf("%s: %d blocked below saturation", stk, lc.Recorder.Blocked)
		}
	}
}

// TestLatencyPlateausUnderOverload: flow control must bound latency as
// offered load grows (Fig 8's plateau).
func TestLatencyPlateausUnderOverload(t *testing.T) {
	lat := func(load float64) float64 {
		lc, err := NewLoadedCluster(Options{N: 3, Stack: types.Modular, Seed: 4},
			Workload{OfferedLoad: load, Size: 16384}, 2*time.Second, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		lc.Run(6 * time.Second)
		return lc.Recorder.MeanLatency()
	}
	l4, l7 := lat(4000), lat(7000)
	if l7 > 1.35*l4 {
		t.Errorf("latency not plateaued: %.2fms at 4000 vs %.2fms at 7000", l4*1e3, l7*1e3)
	}
}

func TestUtilizationAndPendingAccessors(t *testing.T) {
	lc, err := NewLoadedCluster(Options{N: 3, Stack: types.Monolithic, Seed: 1},
		Workload{OfferedLoad: 2000, Size: 8192}, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	lc.Run(3 * time.Second)
	u := lc.Utilization(0)
	if u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
	if lc.Pending(0) < 0 {
		t.Error("negative pending")
	}
	if lc.N() != 3 {
		t.Error("N accessor")
	}
}

// TestClusterStatsUniform checks the Stats surface matches TotalCounters.
func TestClusterStatsUniform(t *testing.T) {
	c, err := NewCluster(Options{N: 3, Stack: types.Monolithic, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Abcast(0, time.Millisecond, []byte("x"), nil)
	c.RunIdle(5 * time.Second)
	st := c.Stats()
	if st.N != 3 || len(st.PerProcess) != 3 {
		t.Fatalf("stats shape: %+v", st)
	}
	if st.Total != c.TotalCounters() {
		t.Fatalf("Stats total %+v != TotalCounters %+v", st.Total, c.TotalCounters())
	}
	if st.Total.ADeliver != 3 {
		t.Fatalf("ADeliver = %d, want 3", st.Total.ADeliver)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(Options{N: 0, Stack: types.Modular}); err == nil {
		t.Error("accepted empty group")
	}
	if _, err := NewCluster(Options{N: 3}); err == nil {
		t.Error("accepted zero stack")
	}
	if _, err := NewCluster(Options{N: 3, Stack: types.Modular,
		Engine: engine.Config{N: 5, Window: 1, DecisionHorizon: 1}}); err == nil {
		t.Error("accepted mismatched engine config")
	}
	bad := engine.DefaultConfig(3)
	bad.Window = 0
	if _, err := NewCluster(Options{N: 3, Stack: types.Modular, Engine: bad}); err == nil {
		t.Error("accepted invalid engine config")
	}
}

func TestAbcastToCrashedProcessReports(t *testing.T) {
	c, err := NewCluster(Options{N: 3, Stack: types.Modular, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Crash(1, 0)
	var got error
	c.Abcast(1, 10*time.Millisecond, []byte("x"), func(_ types.MsgID, _ time.Duration, err error) {
		got = err
	})
	c.Run(time.Second)
	if got != types.ErrCrashed {
		t.Fatalf("err = %v, want ErrCrashed", got)
	}
}
