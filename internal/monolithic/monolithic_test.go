package monolithic

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/enginetest"
	"modab/internal/types"
)

// rig wires n monolithic engines over the enginetest network.
type rig struct {
	n    int
	envs []*enginetest.Env
	engs []*Engine
	net  *enginetest.Net
}

func newRig(t *testing.T, n int, cfg engine.Config) *rig {
	t.Helper()
	if cfg.N == 0 {
		cfg = engine.DefaultConfig(n)
		cfg.IdleKick = 0
	}
	r := &rig{n: n, envs: make([]*enginetest.Env, n), engs: make([]*Engine, n)}
	for i := 0; i < n; i++ {
		r.envs[i] = enginetest.New(types.ProcessID(i), n)
		r.engs[i] = New(r.envs[i], cfg)
		r.engs[i].Start()
	}
	r.net = &enginetest.Net{
		Envs: r.envs,
		Deliver: func(to, from types.ProcessID, data []byte) error {
			return r.engs[to].HandleMessage(from, data)
		},
	}
	return r
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.net.Run(); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) order(p int) []types.MsgID {
	out := make([]types.MsgID, 0, len(r.envs[p].Deliveries))
	for _, d := range r.envs[p].Deliveries {
		out = append(out, d.Msg.ID)
	}
	return out
}

func (r *rig) checkTotalOrder(t *testing.T, want int) {
	t.Helper()
	ref := r.order(0)
	if len(ref) != want {
		t.Fatalf("p1 delivered %d, want %d: %v", len(ref), want, ref)
	}
	for p := 1; p < r.n; p++ {
		if got := r.order(p); !reflect.DeepEqual(got, ref) {
			t.Fatalf("order divergence: p1=%v p%d=%v", ref, p+1, got)
		}
	}
}

func TestCoordinatorAbcastGoesStraightToPool(t *testing.T) {
	r := newRig(t, 3, engine.Config{})
	if _, err := r.engs[0].Abcast([]byte("m")); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	r.checkTotalOrder(t, 1)
}

func TestNonCoordinatorForwardWhenIdle(t *testing.T) {
	r := newRig(t, 3, engine.Config{})
	if _, err := r.engs[2].Abcast([]byte("m")); err != nil {
		t.Fatal(err)
	}
	// The idle pipeline forces an explicit forward to the coordinator.
	found := false
	for _, s := range r.envs[2].Sends {
		if s.To == 0 && mtype(s.Data[0]) == mForward {
			found = true
		}
	}
	if !found {
		t.Fatal("no forward to the coordinator on idle abcast")
	}
	r.run(t)
	r.checkTotalOrder(t, 1)
}

func TestConcurrentAbcastsTotalOrder(t *testing.T) {
	r := newRig(t, 5, engine.Config{})
	for p := 0; p < 5; p++ {
		if _, err := r.engs[p].Abcast([]byte{byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	r.run(t)
	r.checkTotalOrder(t, 5)
}

// TestPipelinedMessageCost checks §5.2.1's direction at the unit level:
// with the pipeline kept busy (submissions interleaved with partial
// message delivery), the per-instance message cost stays near 2(n-1) —
// the exact steady-state count is asserted under the simulator's
// saturating workload in internal/netsim. The synchronous unit network
// drains between rounds, so bootstrap forwards and idle-tail decision
// flushes add a bounded overhead here.
func TestPipelinedMessageCost(t *testing.T) {
	for _, n := range []int{3, 7} {
		cfg := engine.DefaultConfig(n)
		cfg.IdleKick = 0
		cfg.Window = 8
		r := newRig(t, n, cfg)
		for round := 0; round < 60; round++ {
			for p := 0; p < n; p++ {
				_, _ = r.engs[p].Abcast([]byte{byte(round)})
				// Partial drain keeps several instances in flight.
				for i := 0; i < n; i++ {
					if ok, err := r.net.Step(); err != nil {
						t.Fatal(err)
					} else if !ok {
						break
					}
				}
			}
		}
		r.run(t)
		var sent, decided int64
		for p := 0; p < n; p++ {
			s := r.envs[p].Cnt.Snapshot()
			sent += s.MsgsSent
			decided += s.ConsensusDecided
		}
		perInstance := float64(sent) / (float64(decided) / float64(n))
		analytic := float64(2 * (n - 1))
		if perInstance > 2.2*analytic {
			t.Errorf("n=%d: %.2f msgs/instance, analytical %.0f (allowing idle-tail overhead)",
				n, perInstance, analytic)
		}
	}
}

func TestFlowControlWindow(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.Window = 1
	cfg.IdleKick = 0
	r := newRig(t, 3, cfg)
	if _, err := r.engs[1].Abcast([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.engs[1].Abcast([]byte("b")); !errors.Is(err, types.ErrFlowControl) {
		t.Fatalf("want ErrFlowControl, got %v", err)
	}
	r.run(t)
	if _, err := r.engs[1].Abcast([]byte("b")); err != nil {
		t.Fatalf("window not released: %v", err)
	}
}

func TestDecisionOnlyFlushAtIdleTail(t *testing.T) {
	r := newRig(t, 3, engine.Config{})
	if _, err := r.engs[0].Abcast([]byte("m")); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	// Everyone must have delivered even though no further proposal will
	// ever piggyback the decision.
	r.checkTotalOrder(t, 1)
}

func TestCoordinatorCrashRoundChange(t *testing.T) {
	r := newRig(t, 3, engine.Config{})
	// p1 is dead from the start.
	r.net.Drop = func(from, to types.ProcessID, _ []byte) bool {
		return from == 0 || to == 0
	}
	if _, err := r.engs[1].Abcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.engs[2].Abcast([]byte("y")); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	if len(r.envs[1].Deliveries)+len(r.envs[2].Deliveries) != 0 {
		t.Fatal("delivered without coordinator")
	}
	r.engs[1].Suspect(0, true)
	r.engs[2].Suspect(0, true)
	r.run(t)
	// p2 coordinates round 2; both survivor messages get ordered
	// (estimates piggyback them to the new coordinator).
	got1, got2 := r.order(1), r.order(2)
	if len(got1) != 2 || !reflect.DeepEqual(got1, got2) {
		t.Fatalf("survivors: p2=%v p3=%v", got1, got2)
	}
	if r.envs[1].Cnt.Rounds.Load() == 0 && r.envs[2].Cnt.Rounds.Load() == 0 {
		t.Error("no round change counted")
	}
}

func TestCrashAfterProposeKeepsAgreement(t *testing.T) {
	r := newRig(t, 3, engine.Config{})
	// p1 proposes instance 1 but its messages reach only p3 (idx 2).
	if _, err := r.engs[0].Abcast([]byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, s := range r.envs[0].Sends {
		if s.To == 2 {
			if err := r.engs[2].HandleMessage(0, s.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.envs[0].Sends = nil
	r.net.Drop = func(from, to types.ProcessID, _ []byte) bool {
		return from == 0 || to == 0 // p1 crashed
	}
	r.run(t)
	// p3 adopted p1's proposal (ts=1); after suspicion, the round-2
	// coordinator p2 must learn it via p3's estimate and decide "v".
	r.engs[1].Suspect(0, true)
	r.engs[2].Suspect(0, true)
	r.run(t)
	got := r.order(1)
	if len(got) != 1 || got[0].Sender != 0 {
		t.Fatalf("locking broken: %v", got)
	}
	if !reflect.DeepEqual(got, r.order(2)) {
		t.Fatal("survivor divergence")
	}
}

func TestGapRecoveryViaDecisionReq(t *testing.T) {
	r := newRig(t, 3, engine.Config{})
	// p3 misses instance 1 entirely (both the PropDec and the flush).
	r.net.Drop = func(from, to types.ProcessID, data []byte) bool {
		return to == 2
	}
	if _, err := r.engs[0].Abcast([]byte("a")); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	// p1+p2 decided instance 1; p3 knows nothing.
	if len(r.envs[2].Deliveries) != 0 {
		t.Fatal("p3 should have missed everything")
	}
	// Network heals; instance 2 runs; p3 sees PropDec{2} with a decided
	// gap and must refetch instance 1.
	r.net.Drop = nil
	if _, err := r.engs[0].Abcast([]byte("b")); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	r.checkTotalOrder(t, 2)
}

func TestKickTimerReforwardsAfterLoss(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 10 * time.Millisecond
	r := newRig(t, 3, cfg)
	// p3's initial forward to the coordinator is lost.
	dropped := false
	r.net.Drop = func(from, to types.ProcessID, data []byte) bool {
		if !dropped && from == 2 && to == 0 && mtype(data[0]) == mForward {
			dropped = true
			return true
		}
		return false
	}
	if _, err := r.engs[2].Abcast([]byte("m")); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	if len(r.envs[0].Deliveries) != 0 {
		t.Fatal("should be stuck")
	}
	// Kick fires: re-forward.
	r.envs[2].Clock += time.Second
	timers := r.envs[2].Timers
	r.envs[2].Timers = nil
	fired := map[engine.TimerID]bool{}
	for _, tm := range timers {
		if !tm.Canceled && !fired[tm.ID] {
			fired[tm.ID] = true
			r.engs[2].HandleTimer(tm.ID)
		}
	}
	r.run(t)
	r.checkTotalOrder(t, 1)
}

func TestPipelinedManyRounds(t *testing.T) {
	r := newRig(t, 3, engine.Config{})
	total := 0
	for round := 0; round < 40; round++ {
		for p := 0; p < 3; p++ {
			if _, err := r.engs[p].Abcast([]byte{byte(round), byte(p)}); err == nil {
				total++
			}
			for i := 0; i < 2; i++ {
				if ok, err := r.net.Step(); err != nil {
					t.Fatal(err)
				} else if !ok {
					break
				}
			}
		}
	}
	r.run(t)
	r.checkTotalOrder(t, total)
}

func TestPendingCount(t *testing.T) {
	r := newRig(t, 3, engine.Config{})
	if got := r.engs[1].Pending(); got != 0 {
		t.Fatalf("initial pending = %d", got)
	}
	if _, err := r.engs[1].Abcast([]byte("z")); err != nil {
		t.Fatal(err)
	}
	if got := r.engs[1].Pending(); got != 1 {
		t.Fatalf("pending = %d", got)
	}
	r.run(t)
	if got := r.engs[1].Pending(); got != 0 {
		t.Fatalf("pending after delivery = %d", got)
	}
}

func TestMalformedMessage(t *testing.T) {
	r := newRig(t, 3, engine.Config{})
	if err := r.engs[0].HandleMessage(1, []byte{0xEE, 1, 2}); err == nil {
		t.Fatal("malformed message accepted")
	}
}

func TestPruneBoundsState(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	cfg.DecisionHorizon = 8
	r := newRig(t, 3, cfg)
	for i := 0; i < 50; i++ {
		if _, err := r.engs[0].Abcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r.run(t)
	}
	for p := 0; p < 3; p++ {
		if got := r.engs[p].rounds.Len(); got > 10 {
			t.Fatalf("p%d retains %d instances, horizon 8", p+1, got)
		}
	}
	r.checkTotalOrder(t, 50)
}

// TestPipelinedWindowProposals drives the windowed coordinator directly:
// with PipelineDepth 3 and submissions arriving while earlier instances
// are still collecting acks, the coordinator must keep up to three
// proposals in flight over disjoint pool slices, and the cluster must
// still converge to one duplicate-free total order.
func TestPipelinedWindowProposals(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	cfg.Window = 16
	cfg.PipelineDepth = 3
	r := newRig(t, 3, cfg)

	// Submit at the coordinator one at a time WITHOUT running the network:
	// instance k cannot decide, so each submission must open a new window
	// slot rather than wait (the sequential engine would sit on one).
	for i := 0; i < 3; i++ {
		if _, err := r.engs[0].Abcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.engs[0].openProposals(); got != 3 {
		t.Fatalf("open proposals at the coordinator = %d, want 3", got)
	}
	seen := make(map[types.MsgID]uint64)
	for k := uint64(1); k <= 3; k++ {
		in := r.engs[0].rounds.Lookup(k)
		if in == nil {
			t.Fatalf("instance %d not open", k)
		}
		cr := in.Coord[in.Round]
		if cr == nil || !cr.Proposed {
			t.Fatalf("instance %d not proposed", k)
		}
		if len(cr.Proposal) != 1 {
			t.Fatalf("instance %d proposal carries %d messages, want 1 (partitioning)", k, len(cr.Proposal))
		}
		if prev, dup := seen[cr.Proposal[0].ID]; dup {
			t.Fatalf("message %s rides instances %d and %d", cr.Proposal[0].ID, prev, k)
		}
		seen[cr.Proposal[0].ID] = k
	}
	// A fourth submission must NOT open instance 4: the window is full.
	if _, err := r.engs[0].Abcast([]byte{9}); err != nil {
		t.Fatal(err)
	}
	if got := r.engs[0].openProposals(); got != 3 {
		t.Fatalf("window overran: %d open proposals", got)
	}
	// Let the network run: everything decides, in order, exactly once.
	r.run(t)
	r.checkTotalOrder(t, 4)
	if got := r.envs[0].Counters().PipelineDepthObserved.Load(); got != 3 {
		t.Fatalf("PipelineDepthObserved = %d, want 3", got)
	}
}

// TestPipelinedOutOfOrderAckMajority is the regression test for the
// window-head wedge: with W=2, the coordinator's second in-flight
// instance completes its ack majority BEFORE the first decides. The
// decision attempt fires while the instance is not yet the window head
// (decide's in-order guard drops it) and no further ack will re-trigger
// it — decide must therefore re-check the new head's coordinator rounds
// after the watermark advances, or instance 2 never decides.
func TestPipelinedOutOfOrderAckMajority(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	cfg.ResendEvery = 0 // no timers: the cascade alone must recover
	cfg.Window = 8
	cfg.PipelineDepth = 2
	r := newRig(t, 3, cfg)

	// Two submissions at the coordinator: proposals for instances 1 and 2
	// go out back-to-back.
	for i := 0; i < 2; i++ {
		if _, err := r.engs[0].Abcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Deliver instance 2's proposals and acks FIRST, withholding
	// instance 1's: p0 collects a full majority for 2 while 1 is
	// undecided.
	var held []enginetest.Sent
	take := func(env *enginetest.Env) []enginetest.Sent {
		out := env.Sends
		env.Sends = nil
		return out
	}
	instOf := func(data []byte) uint64 {
		m, err := unmarshalMessage(data)
		if err != nil {
			t.Fatal(err)
		}
		return m.Instance
	}
	for _, s := range take(r.envs[0]) {
		if instOf(s.Data) == 2 {
			if err := r.engs[s.To].HandleMessage(0, s.Data); err != nil {
				t.Fatal(err)
			}
		} else {
			held = append(held, s)
		}
	}
	for p := 1; p < 3; p++ {
		for _, s := range take(r.envs[p]) {
			if err := r.engs[s.To].HandleMessage(types.ProcessID(p), s.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e0 := r.engs[0]; e0.decidedK() != 0 {
		t.Fatalf("instance decided out of order: decidedK = %d", e0.decidedK())
	}
	// Now release instance 1's proposals and run to quiescence: deciding 1
	// must cascade into the already-complete majority of 2.
	for _, s := range held {
		if err := r.engs[s.To].HandleMessage(0, s.Data); err != nil {
			t.Fatal(err)
		}
	}
	r.run(t)
	if got := r.engs[0].decidedK(); got != 2 {
		t.Fatalf("decidedK = %d, want 2 (ready ack-majority decision was dropped)", got)
	}
	r.checkTotalOrder(t, 2)
}
