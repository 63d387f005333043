package consensus

import (
	"math/rand"
	"testing"
	"time"

	"modab/internal/enginetest"
	"modab/internal/member"
	"modab/internal/rbcast"
	"modab/internal/stack"
	"modab/internal/types"
	"modab/internal/wire"
)

// TestDuplicateAcksDoNotFakeMajority replays one ack many times; the
// coordinator must not decide off a single acknowledging process in a
// group of 5 (majority 3 = self + 2 distinct others).
func TestDuplicateAcksDoNotFakeMajority(t *testing.T) {
	h := newHarness(t, 5)
	// Only p2's messages reach p1; everyone else is partitioned away.
	h.net.Drop = func(from, to types.ProcessID, _ []byte) bool {
		return !(from == 0 || (from == 1 && to == 0))
	}
	h.propose(0, 1, batchOf(0, 1))
	h.run(t)
	// p1 has self-ack + p2's ack = 2 < majority 3.
	if _, decided := h.decided[0].decisions[1]; decided {
		t.Fatal("decided with 2 of 5 acks")
	}
	// Replay p2's ack a few times by re-delivering manually.
	ack := message{Type: mtAck, Instance: 1, Round: 1}
	for i := 0; i < 5; i++ {
		if err := h.stacks[0].Receive(1,
			append([]byte{byte(stack.TagConsensus)}, ack.marshal()...)); err != nil {
			t.Fatal(err)
		}
	}
	if _, decided := h.decided[0].decisions[1]; decided {
		t.Fatal("duplicate acks counted as distinct processes")
	}
}

// TestStaleProposalNacked: a proposal for an abandoned round must be
// nacked, not adopted.
func TestStaleProposalNacked(t *testing.T) {
	h := newHarness(t, 3)
	// p3 advances to round 2 by suspecting p1 before any proposal.
	h.net.Drop = func(from, to types.ProcessID, _ []byte) bool {
		return true // isolate everything; we drive by hand
	}
	h.suspect(2, 0)
	h.run(t)
	// Now p1's round-1 proposal arrives late at p3.
	h.net.Drop = nil
	prop := message{Type: mtProposal, Instance: 1, Round: 1, Batch: batchOf(0, 1)}
	if err := h.stacks[2].Receive(0,
		append([]byte{byte(stack.TagConsensus)}, prop.marshal()...)); err != nil {
		t.Fatal(err)
	}
	// p3 must NOT have adopted round 1 (its round is 2) — it nacks, and
	// no ack is recorded at p1.
	if err := h.net.Run(); err != nil {
		t.Fatal(err)
	}
	inst := h.layers[0].rounds.Lookup(1)
	if inst != nil && len(inst.Duty(1).Acks) > 1 {
		t.Fatal("stale proposal was acked")
	}
}

// TestAckForUnproposedRoundIgnored: stray acks for rounds this process
// never proposed must not corrupt coordinator state.
func TestAckForUnproposedRoundIgnored(t *testing.T) {
	h := newHarness(t, 3)
	ack := message{Type: mtAck, Instance: 7, Round: 1}
	if err := h.stacks[0].Receive(1,
		append([]byte{byte(stack.TagConsensus)}, ack.marshal()...)); err != nil {
		t.Fatal(err)
	}
	if _, decided := h.decided[0].decisions[7]; decided {
		t.Fatal("stray ack caused a decision")
	}
}

// TestDecisionReqForUnknownInstanceIgnored: a catch-up request for an
// instance this process knows nothing about is dropped silently.
func TestDecisionReqForUnknownInstanceIgnored(t *testing.T) {
	h := newHarness(t, 3)
	req := message{Type: mtDecisionReq, Instance: 42}
	if err := h.stacks[1].Receive(2,
		append([]byte{byte(stack.TagConsensus)}, req.marshal()...)); err != nil {
		t.Fatal(err)
	}
	if len(h.envs[1].Sends) != 0 {
		t.Fatal("replied to a request for an unknown instance")
	}
}

// TestMessageRoundTrips covers every consensus message variant through
// the codec.
func TestMessageRoundTrips(t *testing.T) {
	msgs := []message{
		{Type: mtEstimate, Instance: 9, Round: 3, TS: 2, HasValue: true, Batch: batchOf(1, 4, 5)},
		{Type: mtEstimate, Instance: 9, Round: 3, HasValue: false, Batch: nil},
		{Type: mtProposal, Instance: 1, Round: 1, Batch: batchOf(0, 1)},
		{Type: mtAck, Instance: 2, Round: 7},
		{Type: mtNack, Instance: 2, Round: 7},
		{Type: mtDecisionTag, Instance: 3, Round: 1},
		{Type: mtDecisionReq, Instance: 4},
		{Type: mtDecisionFull, Instance: 4, Round: 2, Batch: batchOf(2, 8)},
	}
	for _, m := range msgs {
		got, err := unmarshalMessage(m.marshal())
		if err != nil {
			t.Fatalf("%s: %v", m.Type, err)
		}
		if got.Type != m.Type || got.Instance != m.Instance || got.Round != m.Round ||
			got.TS != m.TS || got.HasValue != m.HasValue || len(got.Batch) != len(m.Batch) {
			t.Fatalf("%s: round trip mismatch: %+v vs %+v", m.Type, got, m)
		}
	}
	if _, err := unmarshalMessage([]byte{0xFF}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := unmarshalMessage(nil); err == nil {
		t.Fatal("empty message accepted")
	}
}

// TestPruneRetainsWhatTheSweepDid decides instances out of order, four at
// a time as a depth-4 pipeline lands them, with one instance left
// undecided far below maxDecided, and after every message compares the
// retained instances with the rule prune used to apply by sweeping the
// whole map: once more than horizon instances are held, every decided one
// at or below maxDecided-horizon goes; an undecided one never does.
func TestPruneRetainsWhatTheSweepDid(t *testing.T) {
	const (
		horizon   = 16 // newHarness
		depth     = 4
		straggler = 5
	)
	h := newHarness(t, 3)
	l, env := h.layers[1], h.envs[1]
	ref := make(map[uint64]bool) // retained instance -> decided, by the old rule
	receive := func(m message) {
		t.Helper()
		before := env.Cnt.ConsensusDecided.Load()
		if err := h.stacks[1].Receive(0, append([]byte{byte(stack.TagConsensus)}, m.marshal()...)); err != nil {
			t.Fatal(err)
		}
		for _, k := range l.rounds.Keys() {
			ref[k] = false
		}
		for k := range ref {
			ref[k] = l.decidedSet.Seen(k)
		}
		if env.Cnt.ConsensusDecided.Load() != before && len(ref) > horizon && l.maxDecided >= horizon {
			for k, decided := range ref {
				if decided && k <= l.maxDecided-horizon {
					delete(ref, k)
				}
			}
		}
		if l.rounds.Len() != len(ref) {
			t.Fatalf("after %+v: %d instances retained, the sweep kept %d", m, l.rounds.Len(), len(ref))
		}
		for k, decided := range ref {
			if inst := l.rounds.Lookup(k); inst == nil || inst.Decided != decided {
				t.Fatalf("after %+v: instance %d (decided=%v) missing or wrong: %+v", m, k, decided, inst)
			}
		}
	}
	rng := rand.New(rand.NewSource(4))
	for base := uint64(0); base < 160; base += depth {
		for _, i := range rng.Perm(depth) {
			k := base + uint64(i) + 1
			receive(message{Type: mtProposal, Instance: k, Round: 1, Batch: batchOf(0, k)})
			if k != straggler {
				receive(message{Type: mtDecisionFull, Instance: k, Round: 1, Batch: batchOf(0, k)})
			}
		}
	}
	if inst := l.rounds.Lookup(straggler); inst == nil || inst.Decided {
		t.Fatalf("undecided instance %d below the horizon was retired: %+v", straggler, inst)
	}
	if got := env.Cnt.InstancesRetained.Load(); got < horizon || got > horizon+depth+1 {
		t.Fatalf("InstancesRetained high-water mark = %d, want about the horizon %d", got, horizon)
	}
	// Once it decides it is at once behind the horizon, and goes.
	receive(message{Type: mtDecisionFull, Instance: straggler, Round: 1, Batch: batchOf(0, straggler)})
	if l.rounds.Lookup(straggler) != nil {
		t.Fatal("late-decided instance behind the horizon stayed")
	}
}

// spinCap bounds the sends one trigger may record in
// TestRemovedProcessSuspicionBounded: far above the bound under test, and
// low enough that a livelocked handler fails fast instead of exhausting
// memory before the deadline.
const spinCap = 1000

// cappedEnv stops a runaway handler once it has sent spinCap frames.
type cappedEnv struct{ *enginetest.Env }

func (c cappedEnv) Send(to types.ProcessID, data []byte) {
	if len(c.Sends) >= spinCap {
		panic("livelock: send cap reached")
	}
	c.Env.Send(to, data)
}

// TestRemovedProcessSuspicionBounded is the regression test for the
// self-removal livelock: a process still running after its removal governs
// its instances by a view it is not in, so the coordinator rotation never
// reaches it. Once it suspects every member, each suspicion must still
// return, having sent at most one nack and one estimate per member.
func TestRemovedProcessSuspicionBounded(t *testing.T) {
	env := cappedEnv{enginetest.New(0, 3)}
	l := New(stack.TagABcast, 50*time.Millisecond, 16)
	l.SeedView(member.View{Epoch: 1, Activation: 1, Members: []types.ProcessID{1, 2}})
	stk := stack.New(env, rbcast.New(stack.TagConsensus, rbcast.Majority, 0), l,
		&decider{decisions: make(map[uint64]wire.Batch)})
	stk.Start()
	prop := message{Type: mtProposal, Instance: 1, Round: 1, Batch: batchOf(1, 1)}
	if err := stk.Receive(1, append([]byte{byte(stack.TagConsensus)}, prop.marshal()...)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []types.ProcessID{1, 2} {
		env.Sends = nil
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			stk.Suspect(p, true)
		}()
		select {
		case r := <-done:
			if r != nil {
				t.Fatalf("Suspect(%s): %v", p, r)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("Suspect(%s) did not return", p)
		}
		sent := make(map[msgType]map[types.ProcessID]int)
		for _, s := range env.Sends {
			if s.Data[0] != byte(stack.TagConsensus) {
				continue
			}
			if m, err := unmarshalMessage(s.Data[1:]); err == nil && (m.Type == mtNack || m.Type == mtEstimate) {
				if sent[m.Type] == nil {
					sent[m.Type] = make(map[types.ProcessID]int)
				}
				if sent[m.Type][s.To]++; sent[m.Type][s.To] > 1 {
					t.Fatalf("Suspect(%s) sent %s to %s twice", p, m.Type, s.To)
				}
			}
		}
		if len(sent[mtEstimate]) == 0 {
			t.Fatalf("Suspect(%s) changed no round", p)
		}
	}
}
