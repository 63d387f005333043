package consensus

import (
	"reflect"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/enginetest"
	"modab/internal/rbcast"
	"modab/internal/stack"
	"modab/internal/types"
	"modab/internal/wire"
)

// decider records EvDecide events; it stands in for the abcast layer.
type decider struct {
	decisions map[uint64]wire.Batch
}

var _ stack.Layer = (*decider)(nil)

func (d *decider) Tag() stack.Tag      { return stack.TagABcast }
func (d *decider) Init(*stack.Context) {}
func (d *decider) Start()              {}
func (d *decider) Event(ev stack.Event) {
	if ev.Kind == stack.EvDecide {
		if _, dup := d.decisions[ev.Instance]; dup {
			panic("duplicate decision event")
		}
		d.decisions[ev.Instance] = ev.Batch
	}
}
func (d *decider) Receive(types.ProcessID, []byte) error { return nil }
func (d *decider) Timer(engine.TimerID)                  {}
func (d *decider) Suspect(types.ProcessID, bool)         {}

// harness is a fully wired consensus group (rbcast + consensus + decider
// per process) over the enginetest network.
type harness struct {
	n       int
	envs    []*enginetest.Env
	stacks  []*stack.Stack
	layers  []*Layer
	decided []*decider
	net     *enginetest.Net
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	h := &harness{
		n:       n,
		envs:    make([]*enginetest.Env, n),
		stacks:  make([]*stack.Stack, n),
		layers:  make([]*Layer, n),
		decided: make([]*decider, n),
	}
	for i := 0; i < n; i++ {
		h.envs[i] = enginetest.New(types.ProcessID(i), n)
		h.layers[i] = New(stack.TagABcast, 50*time.Millisecond, 16)
		h.decided[i] = &decider{decisions: make(map[uint64]wire.Batch)}
		rb := rbcast.New(stack.TagConsensus, rbcast.Majority, 0)
		h.stacks[i] = stack.New(h.envs[i], rb, h.layers[i], h.decided[i])
		h.stacks[i].Start()
	}
	h.net = &enginetest.Net{
		Envs: h.envs,
		Deliver: func(to, from types.ProcessID, data []byte) error {
			return h.stacks[to].Receive(from, data)
		},
	}
	return h
}

func (h *harness) propose(p int, k uint64, batch wire.Batch) {
	h.stacks[p].Emit(stack.TagConsensus, stack.Event{Kind: stack.EvProposeReq, Instance: k, Batch: batch})
}

func (h *harness) run(t *testing.T) {
	t.Helper()
	if err := h.net.Run(); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) suspect(p int, target types.ProcessID) {
	h.stacks[p].Suspect(target, true)
}

// checkAgreement asserts every process decided instance k with the same
// batch, and returns it.
func (h *harness) checkAgreement(t *testing.T, k uint64, expectAll bool) wire.Batch {
	t.Helper()
	var ref wire.Batch
	found := false
	for p := 0; p < h.n; p++ {
		b, ok := h.decided[p].decisions[k]
		if !ok {
			if expectAll {
				t.Fatalf("p%d did not decide instance %d", p+1, k)
			}
			continue
		}
		if !found {
			ref, found = b, true
			continue
		}
		if !reflect.DeepEqual(ref.IDs(), b.IDs()) {
			t.Fatalf("agreement violation on instance %d: %v vs %v", k, ref.IDs(), b.IDs())
		}
	}
	if !found {
		t.Fatalf("nobody decided instance %d", k)
	}
	return ref
}

func batchOf(sender types.ProcessID, seqs ...uint64) wire.Batch {
	b := make(wire.Batch, 0, len(seqs))
	for _, s := range seqs {
		b = append(b, wire.AppMsg{ID: types.MsgID{Sender: sender, Seq: s}, Body: []byte{byte(s)}})
	}
	return b
}

func TestGoodRunDecidesEverywhere(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7} {
		h := newHarness(t, n)
		val := batchOf(0, 1, 2)
		for p := 0; p < n; p++ {
			h.propose(p, 1, batchOf(types.ProcessID(p), 1, 2))
		}
		h.run(t)
		got := h.checkAgreement(t, 1, true)
		// Validity: the decision is the round-1 coordinator's value.
		if !reflect.DeepEqual(got.IDs(), val.IDs()) {
			t.Fatalf("n=%d decided %v, want coordinator value %v", n, got.IDs(), val.IDs())
		}
	}
}

// TestGoodRunMessageCount pins the §5.2.1 consensus cost: proposal (n-1) +
// acks (n-1) + decision rbcast (n-1)·⌊(n+1)/2⌋.
func TestGoodRunMessageCount(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		h := newHarness(t, n)
		for p := 0; p < n; p++ {
			h.propose(p, 1, batchOf(types.ProcessID(p), 1))
		}
		h.run(t)
		h.checkAgreement(t, 1, true)
		want := (n - 1) + (n - 1) + (n-1)*((n+1)/2)
		if h.net.Delivered != want {
			t.Errorf("n=%d: %d messages, want %d", n, h.net.Delivered, want)
		}
	}
}

func TestOnlyCoordinatorValueDecidedInRound1(t *testing.T) {
	h := newHarness(t, 3)
	// Non-coordinators propose; nothing can be decided yet.
	h.propose(1, 1, batchOf(1, 1))
	h.propose(2, 1, batchOf(2, 1))
	h.run(t)
	for p := 0; p < 3; p++ {
		if len(h.decided[p].decisions) != 0 {
			t.Fatal("decided without a coordinator proposal")
		}
	}
	// The coordinator's proposal completes the instance.
	h.propose(0, 1, batchOf(0, 7))
	h.run(t)
	got := h.checkAgreement(t, 1, true)
	if got[0].ID.Sender != 0 || got[0].ID.Seq != 7 {
		t.Fatalf("decided %v, want p1#7", got.IDs())
	}
}

func TestDecisionTagWithoutProposalTriggersRecovery(t *testing.T) {
	h := newHarness(t, 3)
	// Drop the coordinator's proposal to p3 only: p3 will rdeliver the
	// DECISION tag without holding the proposal and must fetch it.
	h.net.Drop = func(from, to types.ProcessID, data []byte) bool {
		return from == 0 && to == 2 && data[0] == byte(stack.TagConsensus) &&
			msgTypeOf(data[1:]) == mtProposal
	}
	for p := 0; p < 3; p++ {
		h.propose(p, 1, batchOf(types.ProcessID(p), 1))
	}
	h.run(t)
	h.checkAgreement(t, 1, true)
	if h.envs[2].Cnt.Retransmissions.Load() == 0 {
		t.Error("p3 decided without the recovery path?")
	}
}

// msgTypeOf peeks at a consensus wire message's type byte.
func msgTypeOf(data []byte) msgType {
	if len(data) == 0 {
		return 0
	}
	return msgType(data[0])
}

func TestCoordinatorCrashRoundChange(t *testing.T) {
	h := newHarness(t, 3)
	// p1 (coordinator) is crashed: all its messages are dropped.
	h.net.Drop = func(from, to types.ProcessID, _ []byte) bool {
		return from == 0 || to == 0
	}
	h.propose(1, 1, batchOf(1, 5))
	h.propose(2, 1, batchOf(2, 6))
	h.run(t)
	// Nothing decided yet (round 1 coordinator is dead, nobody suspects).
	if len(h.decided[1].decisions)+len(h.decided[2].decisions) != 0 {
		t.Fatal("decided without coordinator")
	}
	// Suspicion triggers the round change; p2 coordinates round 2.
	h.suspect(1, 0)
	h.suspect(2, 0)
	h.run(t)
	got := h.checkAgreement(t, 1, false)
	if len(got) == 0 {
		t.Fatal("empty decision")
	}
	if h.envs[1].Cnt.Rounds.Load() == 0 {
		t.Error("no round change counted")
	}
}

// TestLockingPreservesAgreementOnWrongSuspicion reproduces the classic CT
// safety scenario: the round-1 coordinator decides v, while wrongly
// suspected; the round-2 coordinator must decide the same v.
func TestLockingPreservesAgreementOnWrongSuspicion(t *testing.T) {
	h := newHarness(t, 3)
	// p2 never receives the round-1 proposal (only p3 acks it).
	h.net.Drop = func(from, to types.ProcessID, data []byte) bool {
		return from == 0 && to == 1 && data[0] == byte(stack.TagConsensus) &&
			msgTypeOf(data[1:]) == mtProposal
	}
	v := batchOf(0, 42)
	h.propose(0, 1, v)
	h.propose(1, 1, batchOf(1, 9))
	h.propose(2, 1, batchOf(2, 8))
	h.run(t)
	// p1 decided v in round 1 (self ack + p3's ack = majority).
	if got, ok := h.decided[0].decisions[1]; !ok || got[0].ID.Seq != 42 {
		t.Fatalf("coordinator did not decide round 1: %v", got.IDs())
	}
	// Now p2 and p3 wrongly suspect p1 and run round 2 (coordinator p2).
	h.net.Drop = func(from, to types.ProcessID, _ []byte) bool {
		return from == 0 || to == 0 // p1 partitioned away after deciding
	}
	h.suspect(1, 0)
	h.suspect(2, 0)
	h.run(t)
	got := h.checkAgreement(t, 1, false)
	if len(got) != 1 || got[0].ID.Seq != 42 {
		t.Fatalf("locking broken: round-2 decision %v != locked p1#42", got.IDs())
	}
}

func TestResendTimerRecoversOrphanedDecisionTag(t *testing.T) {
	h := newHarness(t, 3)
	// p3 misses BOTH the proposal and any DecisionFull from p1 (as if p1
	// crashed right after rbcasting the tag); the tag still reaches p3 via
	// the relay. p3's resend timer must then fetch the decision from p2.
	h.net.Drop = func(from, to types.ProcessID, data []byte) bool {
		if from != 0 || to != 2 || data[0] != byte(stack.TagConsensus) {
			return false
		}
		mt := msgTypeOf(data[1:])
		return mt == mtProposal || mt == mtDecisionFull
	}
	for p := 0; p < 3; p++ {
		h.propose(p, 1, batchOf(types.ProcessID(p), 1))
	}
	h.run(t)
	if _, ok := h.decided[2].decisions[1]; ok {
		t.Fatal("p3 decided without proposal or recovery")
	}
	// Fire p3's resend timer (the driver would do this after ResendEvery).
	for _, tm := range h.envs[2].Timers {
		if !tm.Canceled {
			h.stacks[2].HandleTimer(tm.ID)
			break
		}
	}
	h.run(t)
	h.checkAgreement(t, 1, true)
}

func TestInstancesAreIndependent(t *testing.T) {
	h := newHarness(t, 3)
	for k := uint64(1); k <= 5; k++ {
		for p := 0; p < 3; p++ {
			h.propose(p, k, batchOf(types.ProcessID(p), k))
		}
	}
	h.run(t)
	for k := uint64(1); k <= 5; k++ {
		got := h.checkAgreement(t, k, true)
		if got[0].ID.Seq != k {
			t.Fatalf("instance %d decided %v", k, got.IDs())
		}
	}
}

func TestPruneBoundsInstanceMap(t *testing.T) {
	h := newHarness(t, 3)
	const horizon = 16 // as configured in newHarness
	for k := uint64(1); k <= 3*horizon; k++ {
		for p := 0; p < 3; p++ {
			h.propose(p, k, batchOf(types.ProcessID(p), k))
		}
		h.run(t)
	}
	for p := 0; p < 3; p++ {
		if got := h.layers[p].rounds.Len(); got > horizon+1 {
			t.Fatalf("p%d retains %d instances, horizon %d", p+1, got, horizon)
		}
	}
}

func TestProposeAfterDecideIgnored(t *testing.T) {
	h := newHarness(t, 3)
	for p := 0; p < 3; p++ {
		h.propose(p, 1, batchOf(types.ProcessID(p), 1))
	}
	h.run(t)
	started := h.envs[0].Cnt.ConsensusStarted.Load()
	h.propose(0, 1, batchOf(0, 99)) // late re-propose
	h.run(t)
	if h.envs[0].Cnt.ConsensusStarted.Load() != started {
		t.Fatal("re-propose after decide started a new consensus")
	}
	if got := h.decided[0].decisions[1]; got[0].ID.Seq != 1 {
		t.Fatal("decision changed after re-propose")
	}
}

func TestMalformedConsensusMessage(t *testing.T) {
	h := newHarness(t, 3)
	err := h.stacks[0].Receive(1, []byte{byte(stack.TagConsensus), 0xFF, 0, 1})
	if err == nil {
		t.Fatal("malformed message accepted")
	}
}

func TestSuspectedAtCreationStartsAtLaterRound(t *testing.T) {
	h := newHarness(t, 3)
	// Everyone suspects p1 before any instance exists.
	h.net.Drop = func(from, to types.ProcessID, _ []byte) bool {
		return from == 0 || to == 0
	}
	h.suspect(1, 0)
	h.suspect(2, 0)
	h.propose(1, 1, batchOf(1, 3))
	h.propose(2, 1, batchOf(2, 4))
	h.run(t)
	got := h.checkAgreement(t, 1, false)
	if len(got) == 0 {
		t.Fatal("no decision with pre-suspected coordinator")
	}
}
