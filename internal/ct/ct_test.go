package ct

import (
	"fmt"
	"reflect"
	"testing"

	"modab/internal/member"
	"modab/internal/trace"
	"modab/internal/types"
	"modab/internal/wire"
)

// fakeHost records every Host call as one line and decides through the
// table, as both stacks do.
type fakeHost struct {
	t       *Table
	views   []member.View // ascending activation
	settled map[uint64]bool
	frozen  bool
	fresh   wire.Batch
	horizon uint64 // 0: keep everything
	top     uint64 // highest decided instance
	log     []string
}

func newFake(self types.ProcessID, members ...types.ProcessID) *fakeHost {
	h := &fakeHost{views: []member.View{{Members: members}}, settled: make(map[uint64]bool)}
	h.t = New(self, h, nil, new(trace.Counters))
	return h
}

func (h *fakeHost) View(k uint64) member.View {
	v := h.views[0]
	for _, w := range h.views {
		if w.Activation <= k {
			v = w
		}
	}
	return v
}
func (h *fakeHost) Settled(k uint64) bool  { return h.settled[k] }
func (h *fakeHost) Frozen() bool           { return h.frozen }
func (h *fakeHost) Fresh(*Inst) wire.Batch { return h.fresh }
func (h *fakeHost) Cutoff() (uint64, bool) {
	return h.top - h.horizon, h.horizon > 0 && h.top > h.horizon
}
func (h *fakeHost) record(f string, a ...any) { h.log = append(h.log, fmt.Sprintf(f, a...)) }

func (h *fakeHost) Decide(in *Inst, b wire.Batch, r uint32, quorum bool) {
	h.record("decide k%d r%d %v quorum=%v", in.K, r, b.IDs(), quorum)
	h.t.Decided(in, b, r)
	h.settled[in.K] = true
	if in.K > h.top {
		h.top = in.K
	}
	h.t.Prune()
}
func (h *fakeHost) SendProposal(in *Inst, r uint32, b wire.Batch) {
	h.record("proposal k%d r%d %v", in.K, r, b.IDs())
}
func (h *fakeHost) ResendProposal(to types.ProcessID, in *Inst, r uint32) {
	h.record("resend %s k%d r%d %v", to, in.K, r, in.Coord[r].Proposal.IDs())
}
func (h *fakeHost) SendAck(to types.ProcessID, in *Inst, r uint32) {
	h.record("ack %s k%d r%d", to, in.K, r)
}
func (h *fakeHost) SendNack(to types.ProcessID, k uint64, r uint32) {
	h.record("nack %s k%d r%d", to, k, r)
}
func (h *fakeHost) SendEstimate(to types.ProcessID, in *Inst) {
	h.record("estimate %s k%d r%d ts%d", to, in.K, in.Round, in.EstTS)
}
func (h *fakeHost) SendDecision(to types.ProcessID, in *Inst) {
	h.record("decision %s k%d", to, in.K)
}
func (h *fakeHost) FetchDecision(to types.ProcessID, k uint64) {
	h.record("fetch %s k%d", to, k)
}
func (h *fakeHost) ServeLate(to types.ProcessID, in *Inst) { h.record("late %s k%d", to, in.K) }
func (h *fakeHost) ServePruned(to types.ProcessID, k uint64, r uint32) {
	h.record("pruned %s k%d r%d", to, k, r)
}

// take returns and clears the recorded calls.
func (h *fakeHost) take() []string {
	out := h.log
	h.log = nil
	return out
}

func val(sender types.ProcessID, seq uint64) wire.Batch {
	return wire.Batch{{ID: types.MsgID{Sender: sender, Seq: seq}, Body: []byte{byte(seq)}}}
}

func expect(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("host calls:\n got  %q\n want %q", got, want)
	}
}

// est is one estimate as a test feeds it.
type est struct {
	from types.ProcessID
	ts   uint32
	v    wire.Batch
}

// TestLockingRule: the round-r coordinator proposes the estimate with the
// largest timestamp among a majority, ties broken in member order (not
// arrival order), and its own estimate takes part.
func TestLockingRule(t *testing.T) {
	for _, tc := range []struct {
		name string
		ests []est
		want string
	}{
		{"eldest wins", []est{{2, 1, val(2, 1)}, {3, 2, val(3, 1)}}, "[p4#1]"},
		{"tie in member order", []est{{3, 1, val(3, 1)}, {2, 1, val(2, 1)}}, "[p3#1]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newFake(1, 0, 1, 2, 3, 4) // p2 coordinates round 2
			in := h.t.Get(1)
			in.Est, in.EstTS, in.HasEst = val(1, 9), 0, true
			for i, e := range tc.ests {
				h.t.Estimate(e.from, 1, 2, Estimate{TS: e.ts, HasValue: true, Batch: e.v})
				if i == 0 {
					expect(t, h.take()) // two votes of five: no quorum yet
				}
			}
			expect(t, h.take(), "proposal k1 r2 "+tc.want)
		})
	}
}

// TestLockingRuleOwnEstimate: with no collected estimate holding a value the
// coordinator's own locked estimate wins, and with none at all Host.Fresh
// supplies the value (empty: it waits).
func TestLockingRuleOwnEstimate(t *testing.T) {
	h := newFake(1, 0, 1, 2)
	h.t.Estimate(2, 1, 2, Estimate{})
	expect(t, h.take()) // no value anywhere, Fresh empty: wait
	in := h.t.Lookup(1)
	h.fresh = val(1, 5)
	h.t.MaybePropose(in, 2)
	expect(t, h.take(), "proposal k1 r2 [p2#5]")

	h = newFake(1, 0, 1, 2)
	in = h.t.Get(1)
	in.Est, in.EstTS, in.HasEst = val(0, 7), 1, true
	h.fresh = val(1, 5)
	h.t.Estimate(2, 1, 2, Estimate{})
	expect(t, h.take(), "proposal k1 r2 [p1#7]")
}

// TestQuorumsCountOnlyViewMembers: acks and estimates from processes outside
// the governing view never count toward its majority, however many arrive.
func TestQuorumsCountOnlyViewMembers(t *testing.T) {
	h := newFake(0, 0, 1, 2)
	in := h.t.Get(1)
	h.t.Propose(in, 1, val(0, 1))
	expect(t, h.take(), "proposal k1 r1 [p1#1]")
	for _, p := range []types.ProcessID{5, 7, 9} {
		h.t.Ack(p, 1, 1)
	}
	expect(t, h.take())
	h.t.Ack(1, 1, 1)
	expect(t, h.take(), "decide k1 r1 [p1#1] quorum=true")

	h = newFake(1, 0, 1, 2) // p2 coordinates round 2
	for _, p := range []types.ProcessID{5, 7} {
		h.t.Estimate(p, 1, 2, Estimate{TS: 1, HasValue: true, Batch: val(p, 1)})
	}
	expect(t, h.take())
	h.t.Estimate(2, 1, 2, Estimate{TS: 0, HasValue: true, Batch: val(2, 1)})
	expect(t, h.take(), "proposal k1 r2 [p3#1]") // the outsiders' eldest values were never in the quorum
}

// TestNackAdvance: a nack for the round this process proposed moves it to
// the next round (estimate to its coordinator); a nack for another round, a
// duplicate, or one while frozen does nothing.
func TestNackAdvance(t *testing.T) {
	h := newFake(0, 0, 1, 2)
	in := h.t.Get(1)
	h.t.Propose(in, 1, val(0, 1))
	h.take()
	h.t.Nack(1, 3)
	h.frozen = true
	h.t.Nack(1, 1)
	expect(t, h.take())
	h.frozen = false
	h.t.Nack(1, 1)
	expect(t, h.take(), "estimate p2 k1 r2 ts1")
	h.t.Nack(1, 1)
	expect(t, h.take())
	if in.Round != 2 {
		t.Fatalf("round %d after the nack, want 2", in.Round)
	}
	// Past a suspected coordinator the advance keeps going, as a suspicion does.
	h = newFake(0, 0, 1, 2)
	h.t.Suspected[1] = true
	in = h.t.Get(1)
	h.t.Propose(in, 1, val(0, 1))
	h.take()
	h.t.Nack(1, 1)
	expect(t, h.take(), "estimate p2 k1 r2 ts1", "nack p2 k1 r2", "estimate p3 k1 r3 ts1")
}

// TestProposalRules: a proposal is adopted and acked; one for an abandoned
// round is nacked; one for a round known decided decides it without a
// quorum; one into a decided instance goes to Host.ServeLate.
func TestProposalRules(t *testing.T) {
	h := newFake(2, 0, 1, 2)
	h.t.Proposal(0, 1, 1, val(0, 1))
	expect(t, h.take(), "ack p1 k1 r1")
	if in := h.t.Lookup(1); !in.HasEst || in.EstTS != 1 {
		t.Fatalf("proposal not adopted: %+v", in)
	}
	h.t.Suspected[1] = true
	h.t.Suspected[0] = true
	h.t.Readvance(0)
	h.take()
	h.t.Proposal(0, 1, 1, val(0, 1))
	expect(t, h.take(), "nack p1 k1 r1")

	in := h.t.Get(2)
	h.take()
	in.Waiting = 4
	h.t.Proposal(1, 2, 4, val(1, 2))
	expect(t, h.take(), "decide k2 r4 [p2#2] quorum=false")
	h.t.Proposal(1, 2, 5, val(1, 2))
	expect(t, h.take(), "late p2 k2")
}

// TestPrunedInstanceNeverVotes: once a decided instance is pruned, no
// proposal, ack, estimate or nack for it votes, proposes or changes rounds
// again, and none recreates it.
func TestPrunedInstanceNeverVotes(t *testing.T) {
	h := newFake(0, 0, 1, 2)
	h.horizon = 1
	for k := uint64(1); k <= 3; k++ {
		in := h.t.Get(k)
		h.t.Propose(in, 1, val(0, k))
		h.t.Ack(1, k, 1)
	}
	h.take()
	if h.t.Lookup(1) != nil || !h.t.Pruned(1) {
		t.Fatal("instance 1 not pruned behind horizon 1")
	}
	h.t.Suspected[0] = true
	h.t.Proposal(2, 1, 2, val(2, 1))
	h.t.Ack(2, 1, 1)
	h.t.Estimate(2, 1, 2, Estimate{TS: 1, HasValue: true, Batch: val(2, 1)})
	h.t.Nack(1, 1)
	h.t.Readvance(0)
	expect(t, h.take(), "pruned p3 k1 r2", "pruned p3 k1 r1", "pruned p3 k1 r2")
	if h.t.Lookup(1) != nil {
		t.Fatal("a pruned instance was recreated")
	}
	// A decided but retained instance answers an estimate with the decision.
	h.t.Estimate(2, 3, 2, Estimate{})
	expect(t, h.take(), "decision p3 k3")
}

// TestReadvanceOnViewChange: a view change that makes a suspected process
// the coordinator of an open instance's round moves that instance on, and
// only instances from the given activation.
func TestReadvanceOnViewChange(t *testing.T) {
	h := newFake(4, 0, 1, 2, 4)
	h.t.Suspected[1] = true
	h.t.Get(5)
	h.t.Get(7)
	expect(t, h.take()) // p1 coordinates round 1 of both
	h.views = append(h.views, member.View{Epoch: 1, Activation: 6, Members: []types.ProcessID{1, 2, 4}})
	h.t.Readvance(8)
	expect(t, h.take())
	h.t.Readvance(6)
	expect(t, h.take(), "nack p2 k7 r1", "estimate p3 k7 r2 ts0")
	if r := h.t.Lookup(5).Round; r != 1 {
		t.Fatalf("instance 5, governed by the old view, moved to round %d", r)
	}
}

// TestCascadeBoundedOutsideView: a process whose governing view does not
// contain it and that suspects every member advances one rotation per
// trigger — one nack and one estimate per member — and returns.
func TestCascadeBoundedOutsideView(t *testing.T) {
	h := newFake(0, 1, 2, 3)
	h.t.Suspected[1], h.t.Suspected[2], h.t.Suspected[3] = true, true, true
	h.t.Get(1)
	expect(t, h.take(),
		"nack p2 k1 r1", "estimate p3 k1 r2 ts0",
		"nack p3 k1 r2", "estimate p4 k1 r3 ts0",
		"nack p4 k1 r3", "estimate p2 k1 r4 ts0")
	h.t.Readvance(0)
	if got := len(h.take()); got != 6 {
		t.Fatalf("second trigger made %d sends, want one rotation (6)", got)
	}
	// Frozen holds creation-time advances.
	h.frozen = true
	if r := h.t.Get(2).Round; r != 1 {
		t.Fatalf("frozen creation advanced to round %d", r)
	}
}

// TestResendJoiner: only the instances of a view that admitted a member
// re-send, only this process's own undecided proposals, and only to the
// members of the governing view that have not acked them; once they decide
// the host need not re-arm.
func TestResendJoiner(t *testing.T) {
	h := newFake(0, 0, 1, 2)
	h.views = append(h.views,
		member.View{Epoch: 1, Activation: 3, Members: []types.ProcessID{0, 1, 2, 3}},
		member.View{Epoch: 2, Activation: 5, Members: []types.ProcessID{0, 1, 3}})
	for k, want := range map[uint64]bool{1: false, 2: false, 3: true, 4: true, 5: false} {
		if got := h.t.Admits(k); got != want {
			t.Errorf("Admits(%d) = %v, want %v", k, got, want)
		}
	}
	for k := uint64(2); k <= 5; k++ {
		h.t.Propose(h.t.Get(k), 1, val(0, k))
	}
	h.t.Ack(1, 3, 1)
	h.take()
	if !h.t.ResendJoiner() {
		t.Fatal("open admitting instances, but no re-arm")
	}
	expect(t, h.take(),
		"resend p3 k3 r1 [p1#3]", "resend p4 k3 r1 [p1#3]",
		"resend p2 k4 r1 [p1#4]", "resend p3 k4 r1 [p1#4]", "resend p4 k4 r1 [p1#4]")
	h.t.Ack(3, 3, 1)
	h.t.Ack(1, 4, 1)
	h.t.Ack(2, 4, 1)
	h.take()
	if h.t.ResendJoiner() {
		t.Fatal("re-arm with every admitting instance decided")
	}
	expect(t, h.take())
}

// TestDecisionFetch: Want asks the announcer at once (Nobody defers the ask
// to the retry) and arms the fetch timer once; no instance is asked twice
// in one resend period; each retry asks one member — rotating from the
// last one asked, skipping self and the suspected — for the lowest 32
// wanted instances, and asks nothing after a period in which something
// decided; it re-arms while anything is wanted.
func TestDecisionFetch(t *testing.T) {
	h := newFake(1, 0, 1, 2, 3)
	if !h.t.Want(0, 1, 1) {
		t.Fatal("the first want did not arm the fetch timer")
	}
	expect(t, h.take(), "fetch p1 k1")
	if h.t.Want(2, 1, 1) || h.t.Want(2, 2, 0) {
		t.Fatal("re-armed while the timer is pending")
	}
	expect(t, h.take(), "fetch p3 k2") // k1 was asked this period
	for k := uint64(3); k <= 40; k++ {
		h.t.Want(types.Nobody, k, 0)
	}
	expect(t, h.take())

	// One member per period, the lowest 32 instances: after p3 the rotation
	// skips the suspected p4 and wraps to p1.
	h.t.Suspected[3] = true
	if !h.t.RetryFetch() {
		t.Fatal("no re-arm with 40 instances wanted")
	}
	var want []string
	for k := 1; k <= fetchChunk; k++ {
		want = append(want, fmt.Sprintf("fetch p1 k%d", k))
	}
	expect(t, h.take(), want...)
	h.t.Want(0, 2, 0)
	expect(t, h.take()) // asked by the retry in this period

	// A decision in the period: the next retry asks nobody.
	h.t.Proposal(0, 1, 1, val(0, 1))
	expect(t, h.take(), "decide k1 r1 [p1#1] quorum=false")
	if !h.t.RetryFetch() {
		t.Fatal("no re-arm with 39 instances wanted")
	}
	expect(t, h.take())
	// Then the rotation skips self (p2): p3.
	h.t.RetryFetch()
	if got := h.take(); len(got) != fetchChunk || got[0] != "fetch p3 k2" || got[fetchChunk-1] != "fetch p3 k33" {
		t.Fatalf("retry asked %q, want p3 for k2..k33", got)
	}

	// A held proposal decides at once; nothing decided is asked for.
	h.t.Proposal(0, 50, 1, val(0, 50))
	h.take()
	if h.t.Want(0, 50, 1) {
		t.Fatal("armed for a decided instance")
	}
	expect(t, h.take(), "decide k50 r1 [p1#50] quorum=false")
	h.t.Want(0, 50, 1)
	expect(t, h.take())

	// Once nothing is wanted the timer is left to lapse, and the next want
	// arms it again.
	for k := uint64(2); k <= 40; k++ {
		h.t.Decided(h.t.Get(k), val(0, k), 1)
	}
	if h.t.RetryFetch() {
		t.Fatal("re-armed with nothing wanted")
	}
	if !h.t.Want(0, 60, 1) {
		t.Fatal("a want after the timer lapsed did not arm it")
	}
	expect(t, h.take(), "fetch p1 k60")
}
