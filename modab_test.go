package modab_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"modab"
	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/netsim"
	"modab/internal/obs"
	"modab/internal/recovery"
)

// TestFacadeQuickstart exercises the package doc's quick-start path:
// New, Deliveries, context-aware Abcast, Stats, Close.
func TestFacadeQuickstart(t *testing.T) {
	for _, stk := range []modab.Stack{modab.Modular, modab.Monolithic} {
		stk := stk
		t.Run(stk.String(), func(t *testing.T) {
			cluster, err := modab.New(3, stk)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			if cluster.N() != 3 || cluster.Stack() != stk {
				t.Fatalf("N=%d Stack=%v", cluster.N(), cluster.Stack())
			}

			sub := cluster.Deliveries()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			for p := 0; p < 3; p++ {
				if _, err := cluster.Abcast(ctx, p, []byte{byte(p)}); err != nil {
					t.Fatal(err)
				}
			}
			// 3 messages adelivered at 3 processes each.
			got := make(map[modab.ProcessID][]modab.MsgID)
			timeout := time.After(15 * time.Second)
			for seen := 0; seen < 9; seen++ {
				select {
				case ev := <-sub.C():
					got[ev.P] = append(got[ev.P], ev.D.Msg.ID)
				case <-timeout:
					t.Fatalf("stream delivered %d of 9", seen)
				}
			}
			for p := modab.ProcessID(1); p < 3; p++ {
				for i := range got[0] {
					if got[p][i] != got[0][i] {
						t.Fatalf("order differs at %d", i)
					}
				}
			}
			st := cluster.Stats()
			if st.Total.ADeliver != 9 || st.N != 3 {
				t.Fatalf("stats: %+v", st.Total)
			}
		})
	}
}

// TestFacadeOptionValidation checks option-combination errors.
func TestFacadeOptionValidation(t *testing.T) {
	if _, err := modab.New(2, modab.Modular,
		modab.WithTransportTCP([]string{"a", "b", "c"}, 0)); err == nil {
		t.Error("accepted n != len(addrs)")
	}
	if _, err := modab.New(3, modab.Modular,
		modab.WithTransportTCP([]string{"a", "b"}, 5)); err == nil {
		t.Error("accepted out-of-range self")
	}
	if _, err := modab.New(0, modab.Modular); err == nil {
		t.Error("accepted empty group")
	}
	if _, err := modab.New(3, modab.Modular, modab.WithJoin(0)); !errors.Is(err, modab.ErrBadConfig) {
		t.Errorf("WithJoin without WithTransportTCP: %v", err)
	}
	noWindow := modab.DefaultConfig(3)
	noWindow.Window = 0
	if _, err := modab.New(3, modab.Modular, modab.WithConfig(noWindow)); !errors.Is(err, modab.ErrBadConfig) {
		t.Errorf("WithConfig without a flow-control window: %v", err)
	}
	// The cluster owns the group size and the fields it injects into every
	// node; a Config carrying them is refused, whatever the other options.
	for name, edit := range map[string]func(*modab.Config){
		"N":         func(c *modab.Config) { c.N = 4 },
		"Persist":   func(c *modab.Config) { c.Persist = recovery.NewMemStore() },
		"Recovered": func(c *modab.Config) { c.Recovered = &engine.RecoveredState{NextDecide: 1, NextSeq: 1} },
		"Snapshots": func(c *modab.Config) {
			c.Snapshots = &engine.SnapshotHooks{Latest: func() (uint64, bool) { return 0, false }}
		},
		"InitialView": func(c *modab.Config) { c.InitialView = &modab.View{Members: []modab.ProcessID{0, 1, 2}} },
		"OnConfig":    func(c *modab.Config) { c.OnConfig = func(modab.View, member.Op) {} },
		"Obs":         func(c *modab.Config) { c.Obs = obs.NewRecorder(obs.Config{}) },
	} {
		cfg := modab.DefaultConfig(3)
		edit(&cfg)
		c, err := modab.New(3, modab.Modular, modab.WithConfig(cfg))
		if !errors.Is(err, modab.ErrBadConfig) {
			t.Errorf("WithConfig setting %s: %v", name, err)
		}
		if c != nil {
			c.Close()
		}
	}
	// RequestJoin needs a TCP group started with WithJoin; an in-memory
	// group says so instead of reporting itself stopped.
	cluster, err := modab.New(3, modab.Modular)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.RequestJoin(context.Background(), 0); !errors.Is(err, modab.ErrBadConfig) {
		t.Errorf("RequestJoin: %v, want ErrBadConfig", err)
	}
}

// TestFacadeTCPNode drives a single-process TCP cluster through the
// facade.
func TestFacadeTCPNode(t *testing.T) {
	cluster, err := modab.New(1, modab.Monolithic,
		modab.WithTransportTCP([]string{"127.0.0.1:0"}, 0))
	if err != nil {
		t.Fatal(err)
	}
	sub := cluster.Deliveries()
	if _, err := cluster.Abcast(context.Background(), 0, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.C():
		if string(ev.D.Msg.Body) != "solo" || ev.P != 0 {
			t.Fatalf("event: %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery streamed")
	}
	// p2 is no slot of a one-process group (ErrNotLocal for a real remote
	// peer is TestFacadeConformance's business).
	if _, err := cluster.Abcast(context.Background(), 1, nil); !errors.Is(err, modab.ErrBadConfig) {
		t.Fatalf("out-of-range submit: %v", err)
	}
	if err := cluster.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("stream open after close")
	}
	// Subscriber after close: immediately closed channel.
	if _, ok := <-cluster.Deliveries().C(); ok {
		t.Fatal("post-close subscription yielded a value")
	}
}

// TestWithPipelining checks WithPipelining's argument contract and, on
// the simulator, that a window of four is actually reached:
// PipelineDepthObserved counts the instances in flight at once.
func TestWithPipelining(t *testing.T) {
	if _, err := modab.New(3, modab.Modular, modab.WithPipelining(0)); err == nil {
		t.Fatal("WithPipelining(0) accepted")
	}
	cfg := modab.DefaultConfig(3)
	cfg.PipelineDepth = 4
	c := newSim(t, netsim.Options{N: 3, Stack: modab.Modular, Seed: 7, Engine: cfg})
	for i := 0; i < 40; i++ {
		simAbcast(t, c, i%3, time.Duration(i)*time.Millisecond, []byte{byte(i)})
	}
	c.Run(10 * time.Second)
	st := c.Stats()
	if st.Total.ADeliver != 3*40 {
		t.Fatalf("delivered %d of %d", st.Total.ADeliver, 3*40)
	}
	if st.Total.PipelineDepthObserved < 2 {
		t.Fatalf("pipeline depth observed %d, want >= 2", st.Total.PipelineDepthObserved)
	}
}

func TestDefaultsExposed(t *testing.T) {
	cfg := modab.DefaultConfig(3)
	if cfg.N != 3 || cfg.Window < 1 {
		t.Fatalf("config: %+v", cfg)
	}
}

// TestBatchingOptionValidation covers WithBatching's argument contract.
func TestBatchingOptionValidation(t *testing.T) {
	if _, err := modab.New(3, modab.Modular, modab.WithBatching(0, 0, time.Millisecond)); err == nil {
		t.Fatal("WithBatching(0, ...) accepted")
	}
	if _, err := modab.New(3, modab.Modular, modab.WithBatching(4, 0, 0)); err == nil {
		t.Fatal("WithBatching without flush delay accepted")
	}
	if _, err := modab.New(3, modab.Modular, modab.WithBatching(4, -1, time.Millisecond)); err == nil {
		t.Fatal("WithBatching with negative byte cap accepted")
	}
}

// TestFacadeBatching runs both stacks over the in-memory driver with
// sender-side batching and checks that everything is still delivered,
// in order, with batches actually forming.
func TestFacadeBatching(t *testing.T) {
	for _, stk := range []modab.Stack{modab.Modular, modab.Monolithic} {
		stk := stk
		t.Run(stk.String(), func(t *testing.T) {
			cluster, err := modab.New(3, stk,
				modab.WithBatching(8, 0, time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			sub := cluster.Deliveries(modab.StreamBuffer(512))
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			const perProc = 20
			for i := 0; i < perProc; i++ {
				for p := 0; p < 3; p++ {
					if _, err := cluster.Abcast(ctx, p, []byte{byte(p), byte(i)}); err != nil {
						t.Fatalf("abcast p%d #%d: %v", p, i, err)
					}
				}
			}
			// Every process adelivers all 60 messages.
			perDeliverer := make(map[modab.ProcessID][]modab.MsgID)
			for ev := range sub.C() {
				perDeliverer[ev.P] = append(perDeliverer[ev.P], ev.D.Msg.ID)
				done := 0
				for _, ids := range perDeliverer {
					if len(ids) == 3*perProc {
						done++
					}
				}
				if done == 3 {
					break
				}
			}
			for p := 1; p < 3; p++ {
				for i, id := range perDeliverer[modab.ProcessID(p)] {
					if id != perDeliverer[0][i] {
						t.Fatalf("delivery order diverges at %d on p%d", i, p+1)
					}
				}
			}
			tot := cluster.Stats().Total
			if tot.SenderBatches == 0 {
				t.Fatal("no sender-side batches formed")
			}
			if tot.MsgsPerSenderBatch() <= 1 {
				t.Fatalf("msgs/batch = %.2f, batching never amortized", tot.MsgsPerSenderBatch())
			}
		})
	}
}

// TestBatchingAgeTriggerSimulatedTime drives the flush timer in virtual
// time: an undersized batch must be sealed MaxDelay after its first
// message, on both stacks, deterministically.
func TestBatchingAgeTriggerSimulatedTime(t *testing.T) {
	for _, stk := range []modab.Stack{modab.Modular, modab.Monolithic} {
		stk := stk
		t.Run(stk.String(), func(t *testing.T) {
			cfg := modab.DefaultConfig(3)
			cfg.Batch = modab.BatchConfig{MaxMsgs: 100, MaxDelay: 2 * time.Millisecond}
			c := newSim(t, netsim.Options{N: 3, Stack: stk, Seed: 7, Engine: cfg})
			// Three messages: far below MaxMsgs, so only the age trigger
			// can ever diffuse them.
			for i := 0; i < 3; i++ {
				simAbcast(t, c, 0, 0, []byte{byte(i)})
			}
			c.RunIdle(time.Second)
			for p := modab.ProcessID(0); p < 3; p++ {
				if got := c.Counters(p).ADeliver; got != 3 {
					t.Fatalf("%s adelivered %d of 3", p, got)
				}
			}
			snap := c.Counters(0)
			if snap.SenderBatches != 1 || snap.SenderBatchedMsgs != 3 {
				t.Fatalf("age trigger sealed %d batches with %d msgs, want 1 with 3",
					snap.SenderBatches, snap.SenderBatchedMsgs)
			}
		})
	}
}

// The tests named for the simulator drive internal/netsim directly at the
// engine.Config level: the facade runs the real-time group only.

// newSim builds a simulated cluster and fails the test on any engine error
// it reports by the end of the test.
func newSim(t *testing.T, opts netsim.Options) *netsim.Cluster {
	t.Helper()
	c, err := netsim.NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, err := range c.Errs() {
			t.Errorf("engine error: %v", err)
		}
	})
	return c
}

// simAbcast submits body at process p at virtual time at, retrying a
// flow-control rejection a millisecond later — the blocking Abcast in
// virtual time. Any other rejection fails the test.
func simAbcast(t *testing.T, c *netsim.Cluster, p int, at time.Duration, body []byte) {
	c.Abcast(modab.ProcessID(p), at, body, func(_ modab.MsgID, t0 time.Duration, err error) {
		switch {
		case errors.Is(err, modab.ErrFlowControl):
			simAbcast(t, c, p, t0+time.Millisecond, body)
		case err != nil:
			t.Errorf("abcast at p%d: %v", p+1, err)
		}
	})
}
