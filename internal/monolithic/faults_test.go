package monolithic

import (
	"math/rand"
	"testing"
	"time"

	"modab/internal/dedup"
	"modab/internal/engine"
	"modab/internal/enginetest"
	"modab/internal/member"
	"modab/internal/types"
	"modab/internal/wire"
)

// TestDuplicatedLinksNoDoubleDelivery: a link that duplicates every
// message (the footprint of transport retransmission races under a lossy
// network) must not duplicate deliveries or break total order — every
// handler is idempotent against replays.
func TestDuplicatedLinksNoDoubleDelivery(t *testing.T) {
	r := newRig(t, 3, engine.Config{})
	r.net.Dup = func(from, to types.ProcessID, data []byte) bool { return true }
	for p := 0; p < 3; p++ {
		if _, err := r.engs[p].Abcast([]byte{byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	r.run(t)
	r.checkTotalOrder(t, 3)
}

// TestPrunedInstanceProposalNotAcked pins the safety guard behind the
// pruned-instance catch-up: a proposal for an instance decided so long
// ago it left the retention horizon must NOT be acknowledged (a badly
// lagging proposer could otherwise assemble a majority for a second,
// conflicting decision) — the receiver serves the original decision from
// its log instead.
func TestPrunedInstanceProposalNotAcked(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	cfg.DecisionHorizon = 1
	r := newRig(t, 3, cfg)
	store := newMemPersister()
	r.engs[0].cfg.Persist = store
	for i := 0; i < 4; i++ {
		if _, err := r.engs[0].Abcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r.run(t)
	}
	e := r.engs[0]
	if e.decidedK() != 4 {
		t.Fatalf("decidedK = %d, want 4", e.decidedK())
	}
	if e.rounds.Lookup(1) != nil {
		t.Fatal("instance 1 not pruned with horizon 1")
	}
	r.envs[0].Sends = nil
	// A lagging p3 re-proposes round 1 of the long-pruned instance 1.
	prop := message{Type: mPropDec, Instance: 1, Round: 1,
		Batch: e.rounds.Lookup(4).Decision}
	if err := e.HandleMessage(2, prop.marshal()); err != nil {
		t.Fatal(err)
	}
	for _, s := range r.envs[0].Sends {
		if s.To == 2 && mtype(s.Data[0]) == mAckDiff {
			t.Fatal("pruned-instance proposal was acknowledged")
		}
	}
	served := false
	for _, s := range r.envs[0].Sends {
		if s.To == 2 && mtype(s.Data[0]) == mDecisionFull {
			served = true
		}
	}
	if !served {
		t.Fatal("pruned-instance proposal not answered with the logged decision")
	}
	if in := e.rounds.Lookup(1); in != nil {
		t.Fatal("the pruned instance was recreated")
	}
}

// memPersister is a minimal in-test Persister retaining decisions.
type memPersister struct{ decisions map[uint64]wire.Batch }

func newMemPersister() *memPersister {
	return &memPersister{decisions: make(map[uint64]wire.Batch)}
}

func (m *memPersister) PersistAdmit(wire.Batch) {}
func (m *memPersister) PersistDecision(k uint64, b wire.Batch) {
	m.decisions[k] = append(wire.Batch(nil), b...)
}
func (m *memPersister) ReadDecision(k uint64) (wire.Batch, bool) {
	b, ok := m.decisions[k]
	return b, ok
}

// TestNackAdvancesProposedRound pins the liveness repair the chaos
// harness forced: a coordinator whose proposed round is nacked (the
// nacker abandoned it on suspicion and its ack will never come) must
// re-enter the round rotation instead of waiting for a majority that
// cannot complete. The nack for a round this process never proposed, or
// an old round, stays ignored.
func TestNackAdvancesProposedRound(t *testing.T) {
	r := newRig(t, 3, engine.Config{})
	e := r.engs[0] // round-1 coordinator
	if _, err := e.Abcast([]byte("m")); err != nil {
		t.Fatal(err)
	}
	// p1 has proposed round 1 of instance 1 and holds only its own ack.
	in := e.rounds.Lookup(1)
	if in == nil || !in.Coord[1].Proposed {
		t.Fatal("coordinator did not propose round 1")
	}
	if in.Round != 1 {
		t.Fatalf("round = %d before any nack", in.Round)
	}
	// A nack for an unproposed round is ignored.
	nack := message{Type: mNack, Instance: 1, Round: 3}
	if err := e.HandleMessage(1, nack.marshal()); err != nil {
		t.Fatal(err)
	}
	if in.Round != 1 {
		t.Fatalf("nack for unproposed round advanced to %d", in.Round)
	}
	// A nack for the proposed current round advances it: the estimate
	// goes to the round-2 coordinator.
	nack = message{Type: mNack, Instance: 1, Round: 1}
	if err := e.HandleMessage(2, nack.marshal()); err != nil {
		t.Fatal(err)
	}
	if in.Round != 2 {
		t.Fatalf("round = %d after nacking the proposed round, want 2", in.Round)
	}
	sentEst := false
	for _, s := range r.envs[0].Sends {
		if s.To == 1 && mtype(s.Data[0]) == mEstimate {
			sentEst = true
		}
	}
	if !sentEst {
		t.Fatal("no estimate sent to the round-2 coordinator after the nack")
	}
	// The duplicate nack is idempotent (the round moved past it).
	if err := e.HandleMessage(2, nack.marshal()); err != nil {
		t.Fatal(err)
	}
	if in.Round != 2 {
		t.Fatalf("duplicate nack advanced to %d", in.Round)
	}
	r.run(t)
	r.checkTotalOrder(t, 1)
}

// TestSnapshotAssemblyBounded: a snapshot responder that changes the
// envelope size it announced mid-transfer must not keep the requester
// buffering — the fetch is abandoned (the recovery timer re-announces)
// instead of following the new Total with request after request.
func TestSnapshotAssemblyBounded(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	cfg.Persist = newMemPersister()
	cfg.Recovered = &engine.RecoveredState{NextDecide: 1, NextSeq: 1}
	cfg.Snapshots = &engine.SnapshotHooks{Install: func(wire.SnapshotEnvelope) error {
		t.Error("a truncated envelope must never be installed")
		return nil
	}}
	env := enginetest.New(0, 3)
	e := New(env, cfg)
	e.Start()
	feed := func(fill func(w *wire.Writer)) {
		t.Helper()
		env.Sends = nil
		if err := e.HandleMessage(1, asFrame(fill)); err != nil {
			t.Fatal(err)
		}
	}
	snapReqs := func() (offsets []uint64) {
		for _, s := range env.Sends {
			if f := frameOf(s.Data); wire.FrameKind(f) == wire.FrameSnapReq {
				if req, err := wire.UnmarshalSnapReq(f); err == nil {
					offsets = append(offsets, req.Offset)
				}
			}
		}
		return offsets
	}
	snapResp := func(total, offset uint64) func(w *wire.Writer) {
		return func(w *wire.Writer) {
			wire.AppendSnapRespFrame(w, wire.SnapResp{Index: 10, Total: total, Offset: offset, UpTo: 12, Data: make([]byte, 50)})
		}
	}
	// p2 cannot serve instance 1 but holds a snapshot at 10: fetch it.
	feed(func(w *wire.Writer) { wire.AppendRecoverRespFrame(w, wire.RecoverResp{UpTo: 12, SnapIndex: 10}) })
	if got := snapReqs(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("snapshot branch requested offsets %v, want [0]", got)
	}
	feed(snapResp(100, 0))
	if got := snapReqs(); len(got) != 1 || got[0] != 50 {
		t.Fatalf("first chunk answered with requests %v, want [50]", got)
	}
	feed(snapResp(1<<30, 50))
	if got := snapReqs(); len(got) != 0 {
		t.Fatalf("a Total-changing responder was asked for more: offsets %v", got)
	}
	// The abandoned fetch ignores the peer's further chunks outright.
	feed(snapResp(1<<30, 100))
	if got := snapReqs(); len(got) != 0 {
		t.Fatalf("abandoned fetch still requesting: offsets %v", got)
	}
}

// TestPayloadRepairThroughTail drives the payload-repair pair of the
// shared delivery tail through this stack's encoding: an announce lost on
// one link leaves that peer's head decision blocked on a descriptor whose
// bytes it never got; the payload timer fetches them from a rotating
// holder (payload-fetch / payload-resp frames) and the decision then
// delivers.
// In whole-cluster runs the monolithic full-decision re-serve usually wins
// this race, so the netsim scenarios rarely reach it.
func TestPayloadRepairThroughTail(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	cfg.DigestOrdering = true
	r := newRig(t, 3, cfg)
	r.net.Drop = func(from, to types.ProcessID, data []byte) bool {
		return wire.FrameKind(frameOf(data)) == wire.FrameAnnounce && from == 2 && to == 1
	}
	id, err := r.engs[2].Abcast([]byte("lost on the way to p2"))
	if err != nil {
		t.Fatal(err)
	}
	r.run(t)
	if !r.engs[1].t.Blocked() || len(r.envs[1].Deliveries) != 0 {
		t.Fatalf("p2 must sit blocked on the missing payload (blocked %v, delivered %d)",
			r.engs[1].t.Blocked(), len(r.envs[1].Deliveries))
	}
	r.engs[1].HandleTimer(engine.TimerPayload)
	r.run(t)
	if got := r.envs[1].Cnt.PayloadFetches.Load(); got != 1 {
		t.Fatalf("PayloadFetches at p2 = %d, want 1", got)
	}
	if r.engs[1].t.Blocked() || len(r.envs[1].Deliveries) != 1 || r.envs[1].Deliveries[0].Msg.ID != id {
		t.Fatalf("p2 after the repair: blocked %v, deliveries %v", r.engs[1].t.Blocked(), r.envs[1].Deliveries)
	}
	r.checkTotalOrder(t, 1)
}

// TestPruneRetainsWhatTheSweepDid lands full decisions at a follower out of
// order, four at a time as a depth-4 pipeline does — so undecided
// instances sit buffered above the watermark, and the window's head is
// regularly the last to arrive — and after every message compares the
// retained instances with the rule prune used to apply by sweeping the
// whole map: a decided instance at or below decidedK-horizon goes, an
// undecided one never does. (Decisions apply in instance order here, so
// no undecided instance can fall below the watermark.)
func TestPruneRetainsWhatTheSweepDid(t *testing.T) {
	const (
		horizon = 16
		depth   = 4
	)
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	cfg.PipelineDepth = depth
	cfg.DecisionHorizon = horizon
	r := newRig(t, 3, cfg)
	e := r.engs[1]
	ref := make(map[uint64]bool) // retained instance, by the old rule
	rng := rand.New(rand.NewSource(4))
	for base := uint64(0); base < 160; base += depth {
		for _, i := range rng.Perm(depth) {
			k := base + uint64(i) + 1
			full := message{Type: mDecisionFull, Instance: k, Round: 1,
				Batch: wire.Batch{{ID: types.MsgID{Sender: 0, Seq: k}, Body: []byte{byte(k)}}}}
			if err := e.HandleMessage(0, full.marshal()); err != nil {
				t.Fatal(err)
			}
			for _, k := range e.rounds.Keys() {
				ref[k] = true
			}
			if dk := e.decidedK(); dk > horizon {
				for k := range ref {
					if k <= dk-horizon { // at or below the watermark: decided
						delete(ref, k)
					}
				}
			}
			if e.rounds.Len() != len(ref) {
				t.Fatalf("after decision %d: %d instances retained, the sweep kept %d", k, e.rounds.Len(), len(ref))
			}
			for k := range ref {
				if in := e.rounds.Lookup(k); in == nil || in.Decided != (k <= e.decidedK()) {
					t.Fatalf("after decision %d: instance %d missing or wrong: %+v", k, k, in)
				}
			}
		}
		if got := e.decidedK(); got != base+depth {
			t.Fatalf("decidedK = %d after window %d", got, base/depth)
		}
	}
	if got := r.envs[1].Cnt.InstancesRetained.Load(); got < horizon || got > horizon+depth {
		t.Fatalf("InstancesRetained high-water mark = %d, want about the horizon %d", got, horizon)
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
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	cfg.InitialView = &member.View{Epoch: 1, Activation: 1, Members: []types.ProcessID{1, 2}}
	env := cappedEnv{enginetest.New(0, 3)}
	e := New(env, cfg)
	e.Start()
	prop := message{Type: mPropDec, Instance: 1, Round: 1,
		Batch: wire.Batch{{ID: types.MsgID{Sender: 1, Seq: 1}, Body: []byte("x")}}}
	if err := e.HandleMessage(1, prop.marshal()); err != nil {
		t.Fatal(err)
	}
	for _, p := range []types.ProcessID{1, 2} {
		env.Sends = nil
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			e.Suspect(p, true)
		}()
		select {
		case r := <-done:
			if r != nil {
				t.Fatalf("Suspect(%s): %v", p, r)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("Suspect(%s) did not return", p)
		}
		sent := make(map[mtype]map[types.ProcessID]int)
		for _, s := range env.Sends {
			if m, err := unmarshalMessage(s.Data); err == nil && (m.Type == mNack || m.Type == mEstimate) {
				if sent[m.Type] == nil {
					sent[m.Type] = make(map[types.ProcessID]int)
				}
				if sent[m.Type][s.To]++; sent[m.Type][s.To] > 1 {
					t.Fatalf("Suspect(%s) sent %s to %s twice", p, m.Type, s.To)
				}
			}
		}
		if len(sent[mEstimate]) == 0 {
			t.Fatalf("Suspect(%s) changed no round", p)
		}
	}
}

// TestInstallReleasesProposedMessages: a snapshot install past an instance
// the coordinator proposed into releases what that proposal carried. Left
// assigned to the covered instance, the message was never proposed again.
func TestInstallReleasesProposedMessages(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	cfg.Snapshots = &engine.SnapshotHooks{Install: func(wire.SnapshotEnvelope) error { return nil }}
	e := New(enginetest.New(0, 3), cfg)
	e.Start()
	id, err := e.Abcast([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if in := e.rounds.Lookup(1); in == nil || in.Coord[1] == nil || !in.Coord[1].Proposed {
		t.Fatal("the coordinator did not propose into instance 1")
	}
	// The group decided 1..10 without this process; p1 serves the snapshot
	// at 10, which covers none of its messages.
	env := wire.SnapshotEnvelope{Index: 10, Dedup: dedup.NewMap(3).MarshalBytes(), State: []byte{7}}
	w := wire.NewWriter(env.WireSize())
	env.Marshal(w)
	e.t.BeginRecovery()
	e.t.RecoverResp(1, wire.RecoverResp{UpTo: 10, SnapIndex: 10})
	e.t.SnapResp(1, wire.SnapResp{Index: 10, Total: uint64(w.Len()), UpTo: 10, Data: w.Bytes()})
	e.t.RecoverResp(2, wire.RecoverResp{UpTo: 10})
	if e.t.Next() != 11 || e.t.Rec.Active() {
		t.Fatalf("after the install: next %d, catching up %v; want 11, false", e.t.Next(), e.t.Rec.Active())
	}
	in := e.rounds.Lookup(11)
	if in == nil || in.Coord[1] == nil || len(in.Coord[1].Proposal) != 1 || in.Coord[1].Proposal[0].ID != id {
		t.Fatalf("instance 11 was not proposed with the unordered %v", id)
	}
}
