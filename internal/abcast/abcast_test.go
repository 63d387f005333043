package abcast

import (
	"testing"
	"time"

	"modab/internal/dedup"
	"modab/internal/engine"
	"modab/internal/enginetest"
	"modab/internal/stack"
	"modab/internal/tail"
	"modab/internal/types"
	"modab/internal/wire"
)

// consensusStub records proposals and lets the test inject decisions.
type consensusStub struct {
	ctx       *stack.Context
	proposals map[uint64]wire.Batch
}

var _ stack.Layer = (*consensusStub)(nil)

func (c *consensusStub) Tag() stack.Tag        { return stack.TagConsensus }
func (c *consensusStub) Init(x *stack.Context) { c.ctx = x }
func (c *consensusStub) Start()                {}
func (c *consensusStub) Event(ev stack.Event) {
	if ev.Kind == stack.EvProposeReq {
		c.proposals[ev.Instance] = ev.Batch
	}
}
func (c *consensusStub) Receive(types.ProcessID, []byte) error { return nil }
func (c *consensusStub) Timer(engine.TimerID)                  {}
func (c *consensusStub) Suspect(types.ProcessID, bool)         {}

// decide injects a decision event into the abcast layer.
func (c *consensusStub) decide(k uint64, batch wire.Batch) {
	c.ctx.Emit(stack.TagABcast, stack.Event{Kind: stack.EvDecide, Instance: k, Batch: batch})
}

func rig(t *testing.T, cfg engine.Config) (*enginetest.Env, *Layer, *consensusStub) {
	t.Helper()
	env := enginetest.New(0, 3)
	if cfg.N == 0 {
		cfg = engine.DefaultConfig(3)
		cfg.IdleKick = 0
	}
	ab := New(cfg)
	cs := &consensusStub{proposals: make(map[uint64]wire.Batch)}
	st := stack.New(env, cs, ab)
	st.Start()
	return env, ab, cs
}

func msg(sender types.ProcessID, seq uint64) wire.AppMsg {
	return wire.AppMsg{ID: types.MsgID{Sender: sender, Seq: seq}, Body: []byte{byte(seq)}}
}

func TestAbcastDiffusesAndProposes(t *testing.T) {
	env, ab, cs := rig(t, engine.Config{})
	id, err := ab.Abcast([]byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if id.Sender != 0 || id.Seq != 1 {
		t.Fatalf("id = %v", id)
	}
	if len(env.Sends) != 2 {
		t.Fatalf("diffusion sends = %d, want n-1", len(env.Sends))
	}
	got, ok := cs.proposals[1]
	if !ok || len(got) != 1 || got[0].ID != id {
		t.Fatalf("proposal = %v", got)
	}
}

func TestNoSecondProposalWhileRunning(t *testing.T) {
	_, ab, cs := rig(t, engine.Config{})
	if _, err := ab.Abcast([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := ab.Abcast([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if len(cs.proposals) != 1 {
		t.Fatalf("proposals = %d, want 1 while instance 1 runs", len(cs.proposals))
	}
	// Deciding instance 1 releases the next proposal with the leftover.
	cs.decide(1, cs.proposals[1])
	if got := cs.proposals[2]; len(got) != 1 || got[0].ID.Seq != 2 {
		t.Fatalf("proposal 2 = %v", got)
	}
}

func TestOutOfOrderDecisionsBuffered(t *testing.T) {
	env, ab, cs := rig(t, engine.Config{})
	if _, err := ab.Abcast([]byte("a")); err != nil {
		t.Fatal(err)
	}
	// Decision for instance 2 arrives before instance 1.
	b2 := wire.Batch{msg(1, 1)}
	b1 := wire.Batch{msg(0, 1)}
	cs.decide(2, b2)
	if len(env.Deliveries) != 0 {
		t.Fatal("delivered out of order")
	}
	cs.decide(1, b1)
	if len(env.Deliveries) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(env.Deliveries))
	}
	if env.Deliveries[0].Msg.ID != b1[0].ID || env.Deliveries[1].Msg.ID != b2[0].ID {
		t.Fatalf("wrong order: %v", env.Deliveries)
	}
	if env.Deliveries[0].Instance != 1 || env.Deliveries[1].Instance != 2 {
		t.Fatal("instance metadata wrong")
	}
}

func TestDecisionBatchSortedOnDelivery(t *testing.T) {
	env, _, cs := rig(t, engine.Config{})
	// Unsorted decided batch must be delivered in (sender, seq) order.
	batch := wire.Batch{msg(2, 1), msg(0, 5), msg(1, 3)}
	cs.decide(1, batch)
	if len(env.Deliveries) != 3 {
		t.Fatalf("deliveries = %d", len(env.Deliveries))
	}
	for i := 1; i < 3; i++ {
		if env.Deliveries[i-1].Msg.ID.Compare(env.Deliveries[i].Msg.ID) >= 0 {
			t.Fatalf("unsorted delivery: %v", env.Deliveries)
		}
	}
}

func TestDuplicateInDecisionsDeliveredOnce(t *testing.T) {
	env, _, cs := rig(t, engine.Config{})
	m := msg(1, 1)
	cs.decide(1, wire.Batch{m})
	cs.decide(2, wire.Batch{m, msg(1, 2)})
	count := 0
	for _, d := range env.Deliveries {
		if d.Msg.ID == m.ID {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("duplicate delivered %d times", count)
	}
}

func TestReceiveAddsPendingAndProposes(t *testing.T) {
	env, ab, cs := rig(t, engine.Config{})
	m := msg(2, 1)
	frame := marshalDiffuse(m)
	if err := ab.Receive(2, frame); err != nil {
		t.Fatal(err)
	}
	if got := cs.proposals[1]; len(got) != 1 || got[0].ID != m.ID {
		t.Fatalf("proposal = %v", got)
	}
	_ = env
}

func TestMaxBatchCapsProposal(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	cfg.MaxBatch = 2
	cfg.Window = 8
	_, ab, cs := rig(t, cfg)
	for i := 0; i < 5; i++ {
		if _, err := ab.Abcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(cs.proposals[1]); got != 1 {
		// The first proposal went out on the first abcast, before the
		// rest existed; decide it and check the cap on the follow-up.
		t.Fatalf("proposal 1 size = %d", got)
	}
	cs.decide(1, cs.proposals[1])
	if got := len(cs.proposals[2]); got != 2 {
		t.Fatalf("proposal 2 size = %d, want MaxBatch 2", got)
	}
}

func TestKickRediffusesStalePending(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 10 * time.Millisecond
	env, ab, cs := rig(t, cfg)
	// A foreign message is pending but never ordered.
	if err := ab.Receive(2, marshalDiffuse(msg(2, 1))); err != nil {
		t.Fatal(err)
	}
	env.Sends = nil
	env.Clock = time.Second // long past the kick deadline
	ab.Timer(timerKick)
	if len(env.Sends) != 2 {
		t.Fatalf("kick re-diffusion sends = %d, want n-1", len(env.Sends))
	}
	if env.Cnt.Retransmissions.Load() == 0 {
		t.Error("retransmissions not counted")
	}
	_ = cs
}

func TestRediffusionAfterMissedInstances(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	env, ab, cs := rig(t, cfg)
	if err := ab.Receive(2, marshalDiffuse(msg(2, 9))); err != nil {
		t.Fatal(err)
	}
	env.Sends = nil
	// Decisions for rediffuseGrace+1 instances pass without ordering it.
	for k := uint64(1); k <= rediffuseGrace+1; k++ {
		cs.decide(k, wire.Batch{msg(0, k)})
	}
	if len(env.Sends) == 0 {
		t.Fatal("stale pending message never re-diffused")
	}
	_ = ab
}

func TestMalformedDiffuse(t *testing.T) {
	_, ab, _ := rig(t, engine.Config{})
	if err := ab.Receive(1, []byte{1, 2, 3}); err == nil {
		t.Fatal("malformed diffuse accepted")
	}
}

func TestFlowReleaseOnlyForOwn(t *testing.T) {
	_, ab, cs := rig(t, engine.Config{})
	if _, err := ab.Abcast([]byte("mine")); err != nil {
		t.Fatal(err)
	}
	if got := ab.t.Flow.InFlight(); got != 1 {
		t.Fatalf("in flight = %d", got)
	}
	// A decision with only foreign messages does not release our window.
	cs.decide(1, wire.Batch{msg(1, 1)})
	if got := ab.t.Flow.InFlight(); got != 1 {
		t.Fatalf("in flight after foreign decision = %d", got)
	}
	cs.decide(2, wire.Batch{{ID: types.MsgID{Sender: 0, Seq: 1}, Body: []byte("mine")}})
	if got := ab.t.Flow.InFlight(); got != 0 {
		t.Fatalf("in flight after own decision = %d", got)
	}
}

// batchCfg returns a config with sender-side batching enabled.
func batchCfg(maxMsgs, maxBytes int) engine.Config {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	cfg.Batch.MaxMsgs = maxMsgs
	cfg.Batch.MaxBytes = maxBytes
	cfg.Batch.MaxDelay = 5 * time.Millisecond
	return cfg
}

func TestBatchingAccumulatesUntilCountTrigger(t *testing.T) {
	env, ab, cs := rig(t, batchCfg(3, 0))
	for i := 0; i < 2; i++ {
		if _, err := ab.Abcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(env.Sends) != 0 || len(cs.proposals) != 0 {
		t.Fatalf("diffused before the count trigger: sends=%d proposals=%d",
			len(env.Sends), len(cs.proposals))
	}
	if _, err := ab.Abcast([]byte{2}); err != nil {
		t.Fatal(err)
	}
	// One batch frame to each of the n-1 peers, one proposal of 3.
	if len(env.Sends) != 2 {
		t.Fatalf("batch diffusion sends = %d, want n-1", len(env.Sends))
	}
	b, err := wire.UnmarshalFrame(env.Sends[0].Data[1:]) // skip layer tag
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 3 {
		t.Fatalf("diffused batch size = %d, want 3", len(b))
	}
	if got := cs.proposals[1]; len(got) != 3 {
		t.Fatalf("proposal = %v, want 3 messages", got)
	}
	if env.Cnt.SenderBatches.Load() != 1 || env.Cnt.SenderBatchedMsgs.Load() != 3 {
		t.Fatalf("batch counters = %d/%d",
			env.Cnt.SenderBatches.Load(), env.Cnt.SenderBatchedMsgs.Load())
	}
}

func TestBatchingFlushTimerSealsSingleMessageBatch(t *testing.T) {
	env, ab, cs := rig(t, batchCfg(64, 0))
	if _, err := ab.Abcast([]byte("solo")); err != nil {
		t.Fatal(err)
	}
	if len(env.Sends) != 0 {
		t.Fatal("undersized batch diffused before the age trigger")
	}
	ab.Timer(timerFlush)
	if len(env.Sends) != 2 {
		t.Fatalf("flush sends = %d, want n-1", len(env.Sends))
	}
	if got := cs.proposals[1]; len(got) != 1 {
		t.Fatalf("proposal = %v, want the single flushed message", got)
	}
	if env.Cnt.SenderBatchedMsgs.Load() != 1 {
		t.Fatalf("single-message batch not counted")
	}
}

func TestBatchingEmptyFlushTimerIsNoop(t *testing.T) {
	env, ab, cs := rig(t, batchCfg(2, 0))
	// The count trigger seals the batch; the age timer then fires against
	// an empty accumulator and must diffuse nothing.
	for i := 0; i < 2; i++ {
		if _, err := ab.Abcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sends, proposals := len(env.Sends), len(cs.proposals)
	ab.Timer(timerFlush)
	if len(env.Sends) != sends || len(cs.proposals) != proposals {
		t.Fatalf("empty flush produced traffic: sends %d->%d proposals %d->%d",
			sends, len(env.Sends), proposals, len(cs.proposals))
	}
}

func TestBatchingMaxBytesOverflowSplits(t *testing.T) {
	// Each message encodes to 16+100 bytes; a 300-byte cap seals after two.
	env, ab, _ := rig(t, batchCfg(100, 300))
	body := make([]byte, 100)
	for i := 0; i < 3; i++ {
		if _, err := ab.Abcast(body); err != nil {
			t.Fatal(err)
		}
	}
	if env.Cnt.SenderBatches.Load() != 1 || env.Cnt.SenderBatchedMsgs.Load() != 2 {
		t.Fatalf("overflow split: batches=%d msgs=%d, want 1 batch of 2",
			env.Cnt.SenderBatches.Load(), env.Cnt.SenderBatchedMsgs.Load())
	}
	if got := ab.Pending(); got != 3 {
		t.Fatalf("pending (incl. accumulator) = %d, want 3", got)
	}
}

func TestBatchingWindowSpansBatchBoundary(t *testing.T) {
	// Window 2 would deadlock a 4-message batch; EffectiveWindow widens it
	// to two batches (8), so a full batch can accumulate while the sealed
	// one is in flight — and the 9th submission hits flow control.
	cfg := batchCfg(4, 0)
	cfg.Window = 2
	env, ab, cs := rig(t, cfg)
	for i := 0; i < 8; i++ {
		if _, err := ab.Abcast([]byte{byte(i)}); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	if _, err := ab.Abcast([]byte{9}); err == nil {
		t.Fatal("9th submission admitted past the widened window")
	}
	if env.Cnt.SenderBatches.Load() != 2 {
		t.Fatalf("sealed batches = %d, want 2", env.Cnt.SenderBatches.Load())
	}
	// Delivering the first decided batch frees slots spanning the boundary.
	cs.decide(1, cs.proposals[1])
	if got := ab.t.Flow.InFlight(); got != 4 {
		t.Fatalf("in flight after decision = %d, want 4", got)
	}
	if _, err := ab.Abcast([]byte{10}); err != nil {
		t.Fatalf("admission after window drained: %v", err)
	}
}

func TestReceiveBatchFrame(t *testing.T) {
	_, ab, cs := rig(t, engine.Config{})
	b := wire.Batch{msg(1, 1), msg(1, 2), msg(2, 7)}
	w := wire.NewWriter(1 + b.WireSize())
	wire.AppendBatchFrame(w, b)
	if err := ab.Receive(1, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := cs.proposals[1]; len(got) != 3 {
		t.Fatalf("proposal from batch frame = %v, want 3 messages", got)
	}
}

// TestPipelinedProposals checks the windowed propose path directly: with
// PipelineDepth 3, three proposals go out for three distinct instances,
// each carrying a disjoint slice of the pending set, and a decision for
// the head of the window immediately opens the next slot.
func TestPipelinedProposals(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	cfg.Window = 16
	cfg.PipelineDepth = 3
	_, ab, cs := rig(t, cfg)

	var first types.MsgID
	for i := 0; i < 3; i++ {
		id, err := ab.Abcast([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = id
		}
	}
	if len(cs.proposals) != 3 {
		t.Fatalf("open proposals = %d, want 3 (one per submission, window 3)", len(cs.proposals))
	}
	seen := make(map[types.MsgID]uint64)
	for k, b := range cs.proposals {
		if len(b) != 1 {
			t.Fatalf("instance %d proposed %d messages, want 1 (partitioning)", k, len(b))
		}
		if prev, dup := seen[b[0].ID]; dup {
			t.Fatalf("message %s proposed in instances %d and %d", b[0].ID, prev, k)
		}
		seen[b[0].ID] = k
	}
	// Decide instance 1 with the first message: slot opens, and the next
	// submission must land in instance 4 (2 and 3 are still in flight).
	cs.decide(1, wire.Batch{{ID: first, Body: []byte{0}}})
	if _, err := ab.Abcast([]byte{9}); err != nil {
		t.Fatal(err)
	}
	if _, ok := cs.proposals[4]; !ok {
		t.Fatalf("proposals after decide+submit: %v, want instance 4 opened", keys(cs.proposals))
	}
}

func keys(m map[uint64]wire.Batch) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestProposalBatchAllocatesOnce pins the cost of the proposal hot path:
// taking the proposable batch from an unchanged pending set allocates only
// the handed-out batch (the pool keeps MsgID order, so nothing is sorted),
// repeated takes return the same batch, and a new message appears in the
// next one.
func TestProposalBatchAllocatesOnce(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	_, ab, _ := rig(t, cfg)
	for i := uint64(1); i <= 64; i++ {
		ab.t.Pool.Add(msg(1, i), 1)
	}
	take := func() wire.Batch { return ab.t.Pool.Take(ab.t.Next(), ab.t.Hist.Current(), ab.cfg.MaxBatch) }

	first := take()
	if len(first) != 64 {
		t.Fatalf("batch = %d messages, want 64", len(first))
	}
	// Unchanged set: one allocation (the returned batch), the same batch.
	allocs := testing.AllocsPerRun(100, func() {
		if got := take(); len(got) != 64 || got[63].ID != first[63].ID {
			t.Fatalf("batch of an unchanged set = %d messages", len(got))
		}
	})
	if allocs > 1 {
		t.Fatalf("taking from an unchanged set allocates %.0f times, want <= 1", allocs)
	}
	// A new message must appear in the next batch.
	ab.t.Pool.Add(msg(2, 1), 1)
	if got := take(); len(got) != 65 {
		t.Fatalf("batch after an add = %d messages, want 65", len(got))
	}
}

// marshalDiffuse builds a single-message diffuse frame, as a peer's
// diffuseOne sends it.
func marshalDiffuse(m wire.AppMsg) []byte {
	w := wire.NewWriter(1 + m.WireSize())
	wire.AppendMsgFrame(w, m)
	return w.Bytes()
}

// installPast drives a lagging process through a snapshot install: the
// group decided instances 1..10 without it, and p1 serves the snapshot at
// 10, which covers none of this process's messages.
func installPast(t *testing.T, tl *tail.Tail) {
	t.Helper()
	env := wire.SnapshotEnvelope{Index: 10, Dedup: dedup.NewMap(3).MarshalBytes(), State: []byte{7}}
	w := wire.NewWriter(env.WireSize())
	env.Marshal(w)
	tl.BeginRecovery()
	tl.RecoverResp(1, wire.RecoverResp{UpTo: 10, SnapIndex: 10})
	tl.SnapResp(1, wire.SnapResp{Index: 10, Total: uint64(w.Len()), UpTo: 10, Data: w.Bytes()})
	tl.RecoverResp(2, wire.RecoverResp{UpTo: 10})
	if tl.Next() != 11 || tl.Rec.Active() {
		t.Fatalf("after the install: next %d, catching up %v; want 11, false", tl.Next(), tl.Rec.Active())
	}
}

// TestInstallClosesInFlightProposal: a snapshot install past an instance
// this process proposed into closes that proposal. Left open it held the
// only pipeline slot at W = 1, and the layer never proposed again.
func TestInstallClosesInFlightProposal(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	cfg.Snapshots = &engine.SnapshotHooks{Install: func(wire.SnapshotEnvelope) error { return nil }}
	_, ab, cs := rig(t, cfg)
	id, err := ab.Abcast([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cs.proposals[1]; !ok {
		t.Fatal("no proposal for instance 1")
	}
	installPast(t, ab.t)
	if got := cs.proposals[11]; len(got) != 1 || got[0].ID != id {
		t.Fatalf("proposal for instance 11 = %v, want the unordered %v", got, id)
	}
}
