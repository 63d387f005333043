package netsim

import (
	"fmt"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/types"
)

// measureThroughput runs a saturating 64-byte workload at n=3 on the
// metro cost model (the latency-bound regime pipelining targets; see
// MetroModel) for the given stack and pipeline depth, returning the
// measured throughput (msgs/s) and the observed pipeline depth.
func measureThroughput(t *testing.T, stk types.Stack, depth int) (float64, int64) {
	t.Helper()
	cfg := engine.DefaultConfig(3)
	cfg.PipelineDepth = depth
	lc, err := NewLoadedCluster(
		Options{N: 3, Stack: stk, Engine: cfg, Seed: 42, Model: MetroModel()},
		Workload{OfferedLoad: 120000, Size: 64},
		500*time.Millisecond, 2*time.Second)
	if err != nil {
		t.Fatalf("NewLoadedCluster: %v", err)
	}
	lc.Run(3 * time.Second)
	if errs := lc.Errs(); len(errs) > 0 {
		t.Fatalf("engine error: %v", errs[0])
	}
	return lc.Recorder.Throughput(), lc.TotalCounters().PipelineDepthObserved
}

// TestPipelineThroughputScales is the acceptance measurement of the
// pipelined refactor: at n=3 with 64-byte messages under saturating load
// in the latency-bound regime, a window of 8 concurrent instances must at
// least double both stacks' throughput over sequential operation (the
// decision round-trips overlap instead of serializing), and the observed
// depth must actually reach the configured window.
func TestPipelineThroughputScales(t *testing.T) {
	for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
		t.Run(stk.String(), func(t *testing.T) {
			seqThr, seqDepth := measureThroughput(t, stk, 1)
			pipeThr, pipeDepth := measureThroughput(t, stk, 8)
			t.Logf("%s: W=1 %.0f msgs/s (depth %d) -> W=8 %.0f msgs/s (depth %d)",
				stk, seqThr, seqDepth, pipeThr, pipeDepth)
			if seqDepth != 1 {
				t.Errorf("sequential run observed pipeline depth %d, want 1", seqDepth)
			}
			if pipeDepth != 8 {
				t.Errorf("pipelined run observed depth %d, want 8", pipeDepth)
			}
			if pipeThr < 2*seqThr {
				t.Errorf("W=8 throughput %.0f < 2x W=1 throughput %.0f", pipeThr, seqThr)
			}
		})
	}
}

// TestPipelineDepthOneMatchesDefault pins the contract that
// PipelineDepth: 1 is the same engine as the unconfigured default, not
// merely an equivalent one: identical seeds must produce byte-identical
// traces. (TestGoldenTraces separately pins the default to the recorded
// pre-pipelining behavior.)
func TestPipelineDepthOneMatchesDefault(t *testing.T) {
	for _, sc := range goldenScenarios {
		for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
			sc, stk := sc, stk
			t.Run(sc.name+"/"+stk.String(), func(t *testing.T) {
				cfg := sc.config()
				cfg.PipelineDepth = 1
				got := sc.fingerprint(t, stk, cfg)
				if want := goldenFingerprints[sc.name+"/"+stk.String()]; got != want {
					t.Errorf("PipelineDepth=1 diverged from the default engine:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// runPipelinedCoordCrash drives the crash-mid-pipeline scenario for one
// stack and seed: a 3-process cluster under load with W=4 instances open,
// whose round-1 coordinator (p0 — it coordinates round 1 of every
// instance) crashes mid-run. It returns every process's delivery
// sequence after quiescence.
func runPipelinedCoordCrash(t *testing.T, stk types.Stack, seed int64) [][]types.MsgID {
	t.Helper()
	const n = 3
	cfg := engine.DefaultConfig(n)
	cfg.PipelineDepth = 4
	seqs := make([][]types.MsgID, n)
	c, err := NewCluster(Options{
		N:      n,
		Stack:  stk,
		Engine: cfg,
		Seed:   seed,
		OnDeliver: func(p types.ProcessID, d engine.Delivery, _ time.Duration) {
			seqs[p] = append(seqs[p], d.Msg.ID)
		},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	InstallWorkload(c, Workload{OfferedLoad: 1800, Size: 64, End: 2 * time.Second}, nil)
	c.Crash(0, 500*time.Millisecond)
	c.Run(3 * time.Second)
	c.RunIdle(60 * time.Second)
	for _, err := range c.Errs() {
		t.Errorf("engine error: %v", err)
	}
	return seqs
}

// TestPipelineCoordinatorCrash is the fault-tolerance acceptance test of
// the pipelined refactor, the seed-sweep extension of the PR 3
// trace-equality harness: with W=4 instances in flight, the round-1
// coordinator crashes mid-run, and the survivors of both stacks must
// still converge — per stack — to one gap-free, duplicate-free total
// order, deterministically per seed.
func TestPipelineCoordinatorCrash(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
			seed, stk := seed, stk
			t.Run(fmt.Sprintf("%s/seed=%d", stk, seed), func(t *testing.T) {
				t.Parallel()
				seqs := runPipelinedCoordCrash(t, stk, seed)
				// Survivor agreement: p1 and p2 delivered identical
				// sequences with no duplicates (p0's prefix is a prefix of
				// theirs, but it is dead and excluded).
				if len(seqs[1]) == 0 {
					t.Fatal("survivors delivered nothing")
				}
				if len(seqs[1]) != len(seqs[2]) {
					t.Fatalf("p2 delivered %d messages, p3 delivered %d", len(seqs[1]), len(seqs[2]))
				}
				seen := make(map[types.MsgID]struct{}, len(seqs[1]))
				for i, id := range seqs[1] {
					if seqs[2][i] != id {
						t.Fatalf("order diverges at %d: p2=%s p3=%s", i, id, seqs[2][i])
					}
					if _, dup := seen[id]; dup {
						t.Fatalf("duplicate delivery %s", id)
					}
					seen[id] = struct{}{}
				}
				// Determinism: the same seed reproduces the same trace.
				again := runPipelinedCoordCrash(t, stk, seed)
				if fmt.Sprint(seqs) != fmt.Sprint(again) {
					t.Fatal("same seed produced different crash-mid-pipeline traces")
				}
			})
		}
	}
}

// TestPipelineCoordinatorCrashRestart extends the sweep to the
// crash-recovery model: the coordinator crashes with W=4 instances open
// on a durable cluster and restarts mid-load; afterwards every process —
// the recovered coordinator included, counting both incarnations as one
// stream — must hold the same duplicate-free total order in both stacks.
func TestPipelineCoordinatorCrashRestart(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
			seed, stk := seed, stk
			t.Run(fmt.Sprintf("%s/seed=%d", stk, seed), func(t *testing.T) {
				t.Parallel()
				const n = 3
				cfg := engine.DefaultConfig(n)
				cfg.PipelineDepth = 4
				seqs := make([][]types.MsgID, n)
				c, err := NewCluster(Options{
					N:       n,
					Stack:   stk,
					Engine:  cfg,
					Seed:    seed,
					Durable: true,
					OnDeliver: func(p types.ProcessID, d engine.Delivery, _ time.Duration) {
						seqs[p] = append(seqs[p], d.Msg.ID)
					},
				})
				if err != nil {
					t.Fatalf("NewCluster: %v", err)
				}
				InstallWorkload(c, Workload{OfferedLoad: 1500, Size: 64, End: 3 * time.Second}, nil)
				c.Crash(0, 500*time.Millisecond)
				c.Restart(0, 1200*time.Millisecond)
				c.Run(4 * time.Second)
				c.RunIdle(60 * time.Second)
				for _, err := range c.Errs() {
					t.Errorf("engine error: %v", err)
				}
				assertIdenticalTotalOrder(t, seqs)
			})
		}
	}
}
