package netsim

import (
	"testing"
	"time"

	"modab/internal/batch"
	"modab/internal/engine"
	"modab/internal/types"
)

// TestRetentionGaugesStayUnderBound runs both stacks under digest ordering
// for several decision horizons and checks the retention gauges against the
// bound package payload promises: delivered entries are capped by the
// horizon (at this load an instance orders about one sender batch), the
// undelivered ones by the origins' flow windows.
func TestRetentionGaugesStayUnderBound(t *testing.T) {
	const n = 3
	cfg := engine.DefaultConfig(n)
	cfg.DigestOrdering = true
	cfg.PipelineDepth = 4
	cfg.DecisionHorizon = 32
	cfg.Batch = batch.Config{MaxMsgs: 8, MaxDelay: 2 * time.Millisecond}
	for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
		t.Run(stk.String(), func(t *testing.T) {
			c, err := NewCluster(Options{N: n, Stack: stk, Engine: cfg, Seed: 42})
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			InstallWorkload(c, Workload{OfferedLoad: 1500, Size: 128, End: 2 * time.Second}, nil)
			c.Run(3 * time.Second)
			c.RunIdle(30 * time.Second)
			for _, err := range c.Errs() {
				t.Errorf("engine error: %v", err)
			}
			tot := c.TotalCounters()
			if decided := tot.ConsensusDecided / n; decided < 4*int64(cfg.DecisionHorizon) {
				t.Fatalf("only %d instances decided: the horizon never pruned", decided)
			}
			msgBound := int64(cfg.DecisionHorizon*cfg.Batch.MaxMsgs + n*cfg.EffectiveWindow())
			for _, g := range []struct {
				name       string
				got, bound int64
			}{
				{"PayloadStoreMsgs", tot.PayloadStoreMsgs, msgBound},
				{"PayloadStoreBytes", tot.PayloadStoreBytes, msgBound * 128},
				{"DescriptorsRetained", tot.DescriptorsRetained, msgBound},
				{"InstancesRetained", tot.InstancesRetained, int64(cfg.DecisionHorizon + 2*cfg.PipelineDepth)},
			} {
				t.Logf("%s = %d (bound %d)", g.name, g.got, g.bound)
				if g.got <= 0 || g.got > g.bound {
					t.Errorf("%s = %d, want in (0, %d]", g.name, g.got, g.bound)
				}
			}
		})
	}
}
