package modab_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"modab"
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

// TestFacadeSimulation runs the simulated driver through the same
// surface: Abcast advances virtual time, Deliveries streams events,
// Stats reads uniformly.
func TestFacadeSimulation(t *testing.T) {
	for _, stk := range []modab.Stack{modab.Modular, modab.Monolithic} {
		cluster, err := modab.New(3, stk, modab.WithSimulation(1))
		if err != nil {
			t.Fatal(err)
		}
		sub := cluster.Deliveries(modab.StreamBuffer(32))
		ctx := context.Background()
		if _, err := cluster.Abcast(ctx, 0, []byte("x")); err != nil {
			t.Fatalf("%s: %v", stk, err)
		}
		if cluster.Sim() == nil {
			t.Fatal("Sim() nil on simulated driver")
		}
		cluster.Sim().RunIdle(5 * time.Second)
		if st := cluster.Stats(); st.Total.ADeliver != 3 {
			t.Fatalf("%s: ADeliver=%d, want 3", stk, st.Total.ADeliver)
		}
		if err := cluster.Close(); err != nil {
			t.Fatal(err)
		}
		streamed := 0
		for range sub.C() {
			streamed++
		}
		if streamed != 3 {
			t.Fatalf("%s: streamed %d of 3", stk, streamed)
		}
	}
}

// TestFacadeSimulationBlockingAbcast fills the window and checks that the
// blocking Abcast drives virtual time forward until admitted.
func TestFacadeSimulationBlockingAbcast(t *testing.T) {
	cfg := modab.DefaultConfig(3)
	cfg.Window = 1
	cluster, err := modab.New(3, modab.Monolithic,
		modab.WithSimulation(4), modab.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	for j := 0; j < 5; j++ {
		if _, err := cluster.Abcast(ctx, 0, []byte{byte(j)}); err != nil {
			t.Fatalf("abcast %d: %v", j, err)
		}
	}
	// A full window plus a canceled context surfaces the context error.
	if _, err := cluster.TryAbcast(0, []byte("fill")); err != nil && !errors.Is(err, modab.ErrFlowControl) {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	for {
		_, err := cluster.TryAbcast(0, []byte("fill"))
		if errors.Is(err, modab.ErrFlowControl) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cluster.Abcast(canceled, 0, []byte("blocked")); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestFacadeOptionValidation checks option-combination errors.
func TestFacadeOptionValidation(t *testing.T) {
	if _, err := modab.New(3, modab.Modular,
		modab.WithTransportTCP([]string{"a", "b", "c"}, 0),
		modab.WithSimulation(1)); err == nil {
		t.Error("accepted TCP+simulation")
	}
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
	// RequestJoin needs the TCP driver with WithJoin; every other cluster
	// says so instead of reporting itself stopped.
	for _, opts := range [][]modab.Option{nil, {modab.WithSimulation(1)}} {
		cluster, err := modab.New(3, modab.Modular, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.RequestJoin(context.Background(), 0); !errors.Is(err, modab.ErrBadConfig) {
			t.Errorf("RequestJoin (opts %v): %v, want ErrBadConfig", opts, err)
		}
		cluster.Close()
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

// TestWithPipelining drives a pipelined modular cluster end to end on
// the simulated driver and checks both the ordering contract and the
// observability: the configured window must actually be reached.
func TestWithPipelining(t *testing.T) {
	cluster, err := modab.New(3, modab.Modular,
		modab.WithSimulation(7), modab.WithPipelining(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sim := cluster.Sim()
	for i := 0; i < 40; i++ {
		p := modab.ProcessID(i % 3)
		sim.Abcast(p, time.Duration(i)*time.Millisecond, []byte{byte(i)}, nil)
	}
	sim.Run(10 * time.Second)
	st := cluster.Stats()
	if st.Total.ADeliver != 3*40 {
		t.Fatalf("delivered %d of %d", st.Total.ADeliver, 3*40)
	}
	if st.Total.PipelineDepthObserved < 2 {
		t.Fatalf("pipeline depth observed %d, want >= 2", st.Total.PipelineDepthObserved)
	}
	if _, err := modab.New(3, modab.Modular, modab.WithPipelining(0)); err == nil {
		t.Fatal("WithPipelining(0) accepted")
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
			cluster, err := modab.New(3, stk,
				modab.WithSimulation(7),
				modab.WithBatching(100, 0, 2*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			// Three messages: far below MaxMsgs, so only the age trigger
			// can ever diffuse them.
			for i := 0; i < 3; i++ {
				if _, err := cluster.TryAbcast(0, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			sim := cluster.Sim()
			sim.RunIdle(time.Second)
			for p := 0; p < 3; p++ {
				if got := cluster.Counters(p).ADeliver; got != 3 {
					t.Fatalf("p%d adelivered %d of 3", p+1, got)
				}
			}
			snap := cluster.Counters(0)
			if snap.SenderBatches != 1 || snap.SenderBatchedMsgs != 3 {
				t.Fatalf("age trigger sealed %d batches with %d msgs, want 1 with 3",
					snap.SenderBatches, snap.SenderBatchedMsgs)
			}
		})
	}
}
