package head

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"modab/internal/batch"
	"modab/internal/dissem"
	"modab/internal/engine"
	"modab/internal/enginetest"
	"modab/internal/member"
	"modab/internal/obs"
	"modab/internal/tail"
	"modab/internal/types"
	"modab/internal/wire"
)

// relayed is one relay frame the fake host was asked to send.
type relayed struct {
	to    types.ProcessID
	h     wire.RelayHeader
	inner []byte
}

// fakeHost is a minimal engine around a Head and its Tail: it records, in
// one event log, what the head asks of it and what the persister saw, so
// tests can assert on call order as well as content.
type fakeHost struct {
	hd  *Head
	t   *tail.Tail
	env *enginetest.Env
	cfg engine.Config

	log       []string // "persist", "members", "relay", "sealed", "announced", "relayed"
	sealed    []wire.Batch
	announced []wire.AppMsg
	members   [][]byte
	relays    []relayed
	timers    []string // "arm" / "cancel" of tail.TimerFlush, in order
	admits    []wire.Batch
	// inbound is every payload-mode relay the router handed back (to holds
	// the sender).
	inbound []relayed
}

var _ Host = (*fakeHost)(nil)

func newHost(self types.ProcessID, n int, mod func(*engine.Config)) *fakeHost {
	h := &fakeHost{env: enginetest.New(self, n), cfg: engine.DefaultConfig(n)}
	h.cfg.Persist = h
	if mod != nil {
		mod(&h.cfg)
	}
	h.t = tail.New(h.env, &h.cfg, h)
	h.hd = New(h.env, &h.cfg, h.t, h)
	return h
}

func (h *fakeHost) Sealed(entries wire.Batch) {
	h.log = append(h.log, "sealed")
	h.sealed = append(h.sealed, entries)
}
func (h *fakeHost) Announced(pm wire.AppMsg) {
	h.log = append(h.log, "announced")
	h.announced = append(h.announced, pm)
}
func (h *fakeHost) Relayed(from types.ProcessID, hdr wire.RelayHeader, inner []byte) error {
	h.log = append(h.log, "relayed")
	h.inbound = append(h.inbound, relayed{from, hdr, bytes.Clone(inner)})
	return nil
}

// Send records a frame to every member as a broadcast and a relay frame to
// one successor as a relay (decoded); the tail's point-to-point frames are
// not this file's business.
func (h *fakeHost) Send(to types.ProcessID, frame []byte) {
	switch {
	case to == types.Nobody:
		h.log = append(h.log, "members")
		h.members = append(h.members, bytes.Clone(frame))
	case wire.FrameKind(frame) == wire.FrameRelay:
		rh, inner, err := wire.UnmarshalRelayFrame(frame)
		if err != nil {
			panic(err)
		}
		h.log = append(h.log, "relay")
		h.relays = append(h.relays, relayed{to, rh, bytes.Clone(inner)})
	}
}
func (h *fakeHost) SetTimer(id tail.Timer, d time.Duration) {
	if id == tail.TimerFlush && d == h.cfg.Batch.MaxDelay {
		h.timers = append(h.timers, "arm")
	}
}
func (h *fakeHost) CancelTimer(id tail.Timer) {
	if id == tail.TimerFlush {
		h.timers = append(h.timers, "cancel")
	}
}

// engine.Persister: only admissions matter here.
func (h *fakeHost) PersistAdmit(b wire.Batch) {
	h.log = append(h.log, "persist")
	h.admits = append(h.admits, b)
}
func (h *fakeHost) PersistDecision(uint64, wire.Batch)     {}
func (h *fakeHost) ReadDecision(uint64) (wire.Batch, bool) { return nil, false }
func (h *fakeHost) Decision(uint64) (wire.Batch, bool)     { return nil, false }
func (h *fakeHost) Decided(uint64, wire.Batch)             {}
func (h *fakeHost) Advanced()                              {}
func (h *fakeHost) Installed()                             {}
func (h *fakeHost) CaughtUp()                              {}
func (h *fakeHost) ViewChanged(v member.View)              { h.hd.SetMembers(v.Members) }

func (h *fakeHost) abcast(t *testing.T, size int) types.MsgID {
	t.Helper()
	id, err := h.hd.Abcast(make([]byte, size))
	if err != nil {
		t.Fatalf("Abcast: %v", err)
	}
	return id
}

func seqs(b wire.Batch) []uint64 {
	out := make([]uint64, len(b))
	for i, m := range b {
		out[i] = m.ID.Seq
	}
	return out
}

func batching(msgs, maxBytes int) func(*engine.Config) {
	return func(c *engine.Config) {
		c.Batch = batch.Config{MaxMsgs: msgs, MaxBytes: maxBytes, MaxDelay: 2 * time.Millisecond}
	}
}

func TestSealTriggersAndFlushTimer(t *testing.T) {
	h := newHost(0, 3, batching(3, 400))
	// Count trigger: the first message arms the age timer, the third seals
	// and — the accumulator now empty — cancels it.
	h.abcast(t, 8)
	h.abcast(t, 8)
	if len(h.sealed) != 0 || h.hd.Accumulating() != 2 || !slices.Equal(h.timers, []string{"arm"}) {
		t.Fatalf("before the count trigger: sealed %d, accumulating %d, timers %v", len(h.sealed), h.hd.Accumulating(), h.timers)
	}
	h.abcast(t, 8)
	if len(h.sealed) != 1 || !slices.Equal(seqs(h.sealed[0]), []uint64{1, 2, 3}) || !slices.Equal(h.timers, []string{"arm", "cancel"}) {
		t.Fatalf("count trigger: sealed %v, timers %v", h.sealed, h.timers)
	}
	// Byte trigger: a message that would overflow MaxBytes seals what is
	// there first; the newcomer starts the next batch under a fresh timer.
	h.abcast(t, 200)
	h.abcast(t, 300)
	if len(h.sealed) != 2 || !slices.Equal(seqs(h.sealed[1]), []uint64{4}) || h.hd.Accumulating() != 1 {
		t.Fatalf("byte trigger: sealed %v, accumulating %d", h.sealed, h.hd.Accumulating())
	}
	if !slices.Equal(h.timers, []string{"arm", "cancel", "arm", "arm"}) {
		t.Fatalf("byte trigger timers %v", h.timers)
	}
	// Age trigger: the flush timer seals the remainder; a second fire finds
	// nothing.
	if !h.hd.Flush() || len(h.sealed) != 3 || !slices.Equal(seqs(h.sealed[2]), []uint64{5}) {
		t.Fatalf("flush: sealed %v", h.sealed)
	}
	if h.hd.Flush() || len(h.sealed) != 3 {
		t.Fatal("an empty flush must seal nothing")
	}
	if c := &h.env.Cnt; c.SenderBatches.Load() != 3 || c.SenderBatchedMsgs.Load() != 5 || c.ABCast.Load() != 5 {
		t.Fatalf("counters: batches %d msgs %d abcast %d", c.SenderBatches.Load(), c.SenderBatchedMsgs.Load(), c.ABCast.Load())
	}
}

// Without an accumulator every message is its own sealed batch, no flush
// timer exists and no sender batch is counted — in payload and digest mode
// alike (the parent's modular stack counted one per message under digest).
func TestUnbatchedSealsAtOnceAndCountsNoBatch(t *testing.T) {
	for _, digest := range []bool{false, true} {
		h := newHost(0, 3, func(c *engine.Config) { c.DigestOrdering = digest })
		h.abcast(t, 8)
		h.abcast(t, 8)
		if len(h.sealed) != 2 || len(h.sealed[0]) != 1 || len(h.timers) != 0 || h.hd.Flush() {
			t.Fatalf("digest=%v: sealed %v, timers %v", digest, h.sealed, h.timers)
		}
		if n := h.env.Cnt.SenderBatches.Load() + h.env.Cnt.SenderBatchedMsgs.Load(); n != 0 {
			t.Fatalf("digest=%v: %d sender batches/messages counted without an accumulator", digest, n)
		}
	}
}

func TestFlowControlRejectionLeavesNoTrace(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{SampleEvery: 1})
	h := newHost(0, 3, func(c *engine.Config) { c.Window = 1; c.Obs = rec })
	h.abcast(t, 8)
	before, events := h.env.Cnt.Snapshot(), len(rec.TraceEvents())
	if _, err := h.hd.Abcast([]byte("x")); !errors.Is(err, types.ErrFlowControl) {
		t.Fatalf("second Abcast: %v, want ErrFlowControl", err)
	}
	if h.env.Cnt.Snapshot() != before || len(rec.TraceEvents()) != events || len(h.sealed) != 1 || len(h.admits) != 1 {
		t.Fatalf("a rejected submission left a trace: counters %+v, %d events, %d sealed, %d logged",
			h.env.Cnt.Snapshot(), len(rec.TraceEvents()), len(h.sealed), len(h.admits))
	}
}

// The batch is logged before its first byte reaches the wire, and ordering
// hears of it last, with the descriptor in place of the messages.
func TestSealPersistsThenSpreadsThenHandsOver(t *testing.T) {
	h := newHost(0, 3, func(c *engine.Config) { batching(2, 0)(c); c.DigestOrdering = true })
	h.abcast(t, 16)
	h.abcast(t, 16)
	if !slices.Equal(h.log, []string{"persist", "members", "sealed"}) {
		t.Fatalf("call order %v", h.log)
	}
	d, b, err := wire.UnmarshalAnnounceFrame(h.members[0])
	if err != nil || len(b) != 2 || d.Origin != 0 || d.DSeq != 1 || d.FirstSeq != 1 {
		t.Fatalf("announce frame: %+v %v %v", d, b, err)
	}
	if got := h.sealed[0]; len(got) != 1 || got[0].ID != d.AppMsg().ID || !bytes.Equal(got[0].Body, d.AppMsg().Body) {
		t.Fatalf("ordering got %v, want the descriptor pseudo-message", got)
	}
	if pb, ok := h.t.Store.Range(d); !ok || len(pb) != 2 {
		t.Fatal("own payload not resident")
	}
}

func TestSpreadAccountingByStrategy(t *testing.T) {
	frame := []byte{wire.FrameBatch, 1, 2, 3}
	all := newHost(0, 4, nil)
	all.hd.Spread(frame, 100)
	if got := all.env.Cnt.PayloadBytesSent.Load(); got != 300 || len(all.members) != 1 || len(all.relays) != 0 {
		t.Fatalf("all-to-all: %d payload bytes, %d broadcasts, %d relays", got, len(all.members), len(all.relays))
	}
	if all.hd.Ring() || all.hd.Fanout() != 3 {
		t.Fatalf("all-to-all: ring %v fanout %d", all.hd.Ring(), all.hd.Fanout())
	}
	ring := newHost(0, 4, func(c *engine.Config) { c.Dissemination = dissem.Ring })
	ring.hd.Spread(frame, 100)
	if got := ring.env.Cnt.PayloadBytesSent.Load(); got != 100 || len(ring.members) != 0 || len(ring.relays) != 1 {
		t.Fatalf("ring: %d payload bytes, %d broadcasts, %d relays", got, len(ring.members), len(ring.relays))
	}
	if r := ring.relays[0]; r.to != 1 || r.h != (wire.RelayHeader{Origin: 0, Seq: 1}) || !bytes.Equal(r.inner, frame) {
		t.Fatalf("ring origin sent %+v", r)
	}
	if !ring.hd.Ring() || ring.hd.Fanout() != 1 {
		t.Fatalf("ring: ring %v fanout %d", ring.hd.Ring(), ring.hd.Fanout())
	}
	// A suspected successor is skipped; with everyone suspected the origin
	// falls back to the broadcast and pays for it.
	ring.hd.Suspect(1, true)
	if relay := ring.hd.Relay(frame, 10, false); !relay || ring.relays[1].to != 2 {
		t.Fatalf("origin past a suspected successor: relay %v, relays %+v", relay, ring.relays)
	}
	ring.hd.Suspect(2, true)
	ring.hd.Suspect(3, true)
	ring.hd.Spread(frame, 100)
	if got := ring.env.Cnt.PayloadBytesSent.Load(); got != 100+10+300 || len(ring.members) != 1 {
		t.Fatalf("ring fallback: %d payload bytes, %d broadcasts", got, len(ring.members))
	}
}

func TestAcceptDedupForwardAndLapEnd(t *testing.T) {
	ringCfg := func(c *engine.Config) { c.Dissemination = dissem.Ring }
	inner := []byte{wire.FrameBatch, 9}
	mid := newHost(1, 3, ringCfg)
	hdr := wire.RelayHeader{Origin: 0, Seq: 1}
	if !mid.hd.Accept(hdr, inner, 50, false) {
		t.Fatal("a first relay must be processed")
	}
	if len(mid.relays) != 1 || mid.relays[0].to != 2 || mid.relays[0].h != (wire.RelayHeader{Origin: 0, Seq: 1, Hops: 1}) {
		t.Fatalf("forwarded %+v", mid.relays)
	}
	if got := mid.env.Cnt.PayloadBytesSent.Load(); got != 50 {
		t.Fatalf("forward accounted %d payload bytes", got)
	}
	if mid.hd.Accept(hdr, inner, 50, false) || len(mid.relays) != 1 || mid.env.Cnt.PayloadBytesSent.Load() != 50 {
		t.Fatal("a duplicate relay must be dropped whole")
	}
	// The last process of the lap processes the frame but its successor is
	// the origin: nothing goes on.
	last := newHost(2, 3, ringCfg)
	if !last.hd.Accept(wire.RelayHeader{Origin: 0, Seq: 1, Hops: 1}, inner, 50, false) || len(last.relays) != 0 || last.env.Cnt.PayloadBytesSent.Load() != 0 {
		t.Fatalf("lap end: relays %v", last.relays)
	}
	// An own frame that came all the way round is not processed again.
	origin := newHost(0, 3, ringCfg)
	origin.hd.Relay(inner, 0, false)
	if origin.hd.Accept(origin.relays[0].h, inner, 50, false) {
		t.Fatal("the origin must drop its own lapped frame")
	}
}

func TestAnnounceIngestDirectAndRelayed(t *testing.T) {
	ringDigest := func(c *engine.Config) { c.Dissemination = dissem.Ring; c.DigestOrdering = true }
	b := wire.Batch{{ID: types.MsgID{Sender: 0, Seq: 1}, Body: []byte("a")}, {ID: types.MsgID{Sender: 0, Seq: 2}, Body: []byte("bc")}}
	d, err := wire.DescriptorFor(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(64)
	wire.AppendAnnounceFrame(w, d, b)
	frame := w.Bytes()

	h := newHost(1, 3, ringDigest)
	if err := h.hd.Announce(frame, nil); err != nil || len(h.announced) != 1 || h.announced[0].ID != (types.MsgID{Sender: 0, Seq: 1}) {
		t.Fatalf("direct announce: %v, announced %v", err, h.announced)
	}
	if pb, ok := h.t.Store.Range(d); !ok || len(pb) != 2 {
		t.Fatal("announced payload not resident")
	}
	if len(h.relays) != 0 {
		t.Fatal("a direct announce is not forwarded")
	}
	// Relayed: forwarded first (payload bytes accounted once), then ingested;
	// the duplicate is dropped before the tail sees it.
	hdr := wire.RelayHeader{Origin: 0, Seq: 7}
	if err := h.hd.Announce(frame, &hdr); err != nil || len(h.announced) != 2 {
		t.Fatalf("relayed announce: %v, announced %d", err, len(h.announced))
	}
	if !slices.Equal(h.log[len(h.log)-2:], []string{"relay", "announced"}) || !bytes.Equal(h.relays[0].inner, frame) {
		t.Fatalf("relayed announce order %v", h.log)
	}
	if got := h.env.Cnt.PayloadBytesSent.Load(); got != 3 {
		t.Fatalf("forward accounted %d payload bytes, want 3", got)
	}
	if err := h.hd.Announce(frame, &hdr); err != nil || len(h.announced) != 2 || len(h.relays) != 1 {
		t.Fatal("a duplicate relayed announce must be dropped whole")
	}
	if err := h.hd.Announce(frame[:len(frame)-1], nil); err == nil {
		t.Fatal("a truncated announce must be rejected")
	}
	// An announce from outside the view is made neither resident nor pending.
	outsider := wire.Batch{{ID: types.MsgID{Sender: 9, Seq: 1}, Body: []byte("x")}}
	od, _ := wire.DescriptorFor(outsider, 1)
	w = wire.NewWriter(64)
	wire.AppendAnnounceFrame(w, od, outsider)
	if err := h.hd.Announce(w.Bytes(), nil); err != nil || len(h.announced) != 2 || h.t.Store.Has(od) {
		t.Fatalf("outsider announce: %v, announced %d", err, len(h.announced))
	}
}

func TestReannounceSkipsNonResidentAndSortsByDSeq(t *testing.T) {
	h := newHost(0, 3, func(c *engine.Config) { c.DigestOrdering = true })
	for i := 0; i < 3; i++ {
		h.abcast(t, 4)
	}
	own := wire.Batch{h.sealed[2][0], h.sealed[0][0], h.sealed[1][0]} // dseq 3, 1, 2
	d2, err := wire.ParseDescriptor(h.sealed[1][0])
	if err != nil {
		t.Fatal(err)
	}
	// Descriptor 2 was decided long ago and its bytes pruned; a raw fallback
	// entry (not a descriptor) rides along.
	h.t.Store.MarkDelivered(d2, 1)
	h.t.Store.PruneBelow(5)
	own = append(own, wire.AppMsg{ID: types.MsgID{Sender: 0, Seq: 99}, Body: []byte("raw")})
	h.members = nil
	if n := h.hd.Reannounce(own); n != 2 || len(h.members) != 2 {
		t.Fatalf("re-announced %d (%d frames), want 2", n, len(h.members))
	}
	for i, want := range []uint64{1, 3} {
		if d, _, err := wire.UnmarshalAnnounceFrame(h.members[i]); err != nil || d.DSeq != want {
			t.Fatalf("frame %d announces dseq %d (%v), want %d", i, d.DSeq, err, want)
		}
	}
	if len(h.admits) != 3 {
		t.Fatalf("re-announcing logged again: %d admits", len(h.admits))
	}
}

// The replayed backlog regroups into contiguous runs {2,3} and {5} under
// descriptors tagged with the new incarnation; in payload mode it is handed
// over as logged.
func TestRecoveredBacklogRegroup(t *testing.T) {
	own := wire.Batch{
		{ID: types.MsgID{Sender: 0, Seq: 5}, Body: []byte("e")},
		{ID: types.MsgID{Sender: 0, Seq: 2}, Body: []byte("b")},
		{ID: types.MsgID{Sender: 0, Seq: 3}, Body: []byte("c")},
	}
	recovered := func(c *engine.Config) {
		c.Recovered = &engine.RecoveredState{NextDecide: 4, Own: own, NextSeq: 6, Boots: 2}
	}
	plain := newHost(0, 3, recovered)
	if !slices.Equal(seqs(plain.hd.Backlog), []uint64{5, 2, 3}) {
		t.Fatalf("payload-mode backlog %v", plain.hd.Backlog)
	}
	h := newHost(0, 3, func(c *engine.Config) { recovered(c); c.DigestOrdering = true })
	if len(h.hd.Backlog) != 2 || len(h.log) != 0 {
		t.Fatalf("backlog %v, host calls %v (New must not call the host)", h.hd.Backlog, h.log)
	}
	for i, want := range []struct {
		first uint64
		count uint32
	}{{2, 2}, {5, 1}} {
		d, err := wire.ParseDescriptor(h.hd.Backlog[i])
		if err != nil || d.FirstSeq != want.first || d.Count != want.count {
			t.Fatalf("run %d regrouped as %+v (%v)", i, d, err)
		}
		if d.DSeq != 2<<wire.DSeqIncarnationShift|uint64(i+1) {
			t.Fatalf("descriptor %d numbered %#x", i, d.DSeq)
		}
		if b, ok := h.t.Store.Range(d); !ok || len(b) != int(d.Count) {
			t.Fatalf("regrouped run %d not resident", i)
		}
	}
	// The next own batch continues the incarnation's numbering.
	h.abcast(t, 4)
	if d, err := wire.ParseDescriptor(h.sealed[0][0]); err != nil || d.DSeq != 2<<wire.DSeqIncarnationShift|3 || d.FirstSeq != 6 {
		t.Fatalf("post-restart descriptor %+v (%v)", d, err)
	}
	if n := h.hd.Reannounce(h.hd.Backlog); n != 2 {
		t.Fatalf("re-announced %d backlog runs, want 2", n)
	}
}

func TestSubmitConfigRidesAbcast(t *testing.T) {
	h := newHost(0, 3, nil)
	id, err := h.hd.SubmitConfig(member.Op{Kind: member.OpAdd, Target: 3})
	if err != nil || len(h.sealed) != 1 || h.sealed[0][0].ID != id {
		t.Fatalf("SubmitConfig: %v, sealed %v", err, h.sealed)
	}
	if op, ok := member.DecodeOp(h.sealed[0][0].Body); !ok || op.Target != 3 || op.BaseEpoch != h.t.Hist.Current().Epoch {
		t.Fatalf("sealed body decodes to %+v (%v)", op, ok)
	}
	if _, err := h.hd.SubmitConfig(member.Op{Kind: member.OpRemove, Target: 7}); err == nil || len(h.sealed) != 1 {
		t.Fatal("an op the current view rejects must not be admitted")
	}
}

// frameOf builds one wire frame.
func frameOf(fill func(w *wire.Writer)) []byte {
	w := wire.NewWriter(64)
	fill(w)
	return w.Bytes()
}

// routerFrames is one valid frame of each of the eight kinds the router
// takes, keyed by kind: a payload batch from p0 and its descriptor ride the
// digest frames, a diffuse frame the relay.
func routerFrames(t testing.TB) map[uint8][]byte {
	b := wire.Batch{{ID: types.MsgID{Sender: 0, Seq: 1}, Body: []byte("ab")}}
	d, err := wire.DescriptorFor(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	announce := frameOf(func(w *wire.Writer) { wire.AppendAnnounceFrame(w, d, b) })
	return map[uint8][]byte{
		wire.FrameRecoverReq: frameOf(func(w *wire.Writer) { wire.AppendRecoverReqFrame(w, wire.RecoverReq{From: 1}) }),
		wire.FrameRecoverResp: frameOf(func(w *wire.Writer) {
			wire.AppendRecoverRespFrame(w, wire.RecoverResp{UpTo: 1, Decisions: []wire.DecidedInstance{{K: 1, Batch: b}}})
		}),
		wire.FrameSnapReq: frameOf(func(w *wire.Writer) { wire.AppendSnapReqFrame(w, wire.SnapReq{Index: 4, Offset: 8}) }),
		wire.FrameSnapResp: frameOf(func(w *wire.Writer) {
			wire.AppendSnapRespFrame(w, wire.SnapResp{Index: 4, Total: 3, UpTo: 4, Data: []byte("xyz")})
		}),
		wire.FramePayloadFetch: frameOf(func(w *wire.Writer) { wire.AppendPayloadFetchFrame(w, d) }),
		wire.FramePayloadResp:  frameOf(func(w *wire.Writer) { wire.AppendPayloadRespFrame(w, d, b) }),
		wire.FrameAnnounce:     announce,
		wire.FrameRelay:        frameOf(func(w *wire.Writer) { wire.AppendRelayFrame(w, wire.RelayHeader{Origin: 0, Seq: 3}, announce) }),
	}
}

// TestReceiveRoutes: each kind reaches its tail or head handler, decoded;
// the digest frames are refused without digest ordering; a payload-mode
// relay goes back to the host with its header; anything else is an error.
func TestReceiveRoutes(t *testing.T) {
	frames := routerFrames(t)
	h := newHost(1, 3, func(c *engine.Config) { c.DigestOrdering = true; c.Dissemination = dissem.Ring })
	if err := h.hd.Receive(0, frames[wire.FrameAnnounce]); err != nil || len(h.announced) != 1 {
		t.Fatalf("announce: %v, announced %d", err, len(h.announced))
	}
	h.log = nil
	if err := h.hd.Receive(0, frames[wire.FramePayloadFetch]); err != nil || h.env.Cnt.Retransmissions.Load() != 1 {
		t.Fatalf("payload-fetch of a resident payload: %v, %d re-serves", err, h.env.Cnt.Retransmissions.Load())
	}
	if err := h.hd.Receive(2, frames[wire.FrameRelay]); err != nil || !slices.Equal(h.log, []string{"relay", "announced"}) {
		t.Fatalf("relayed announce: %v, calls %v", err, h.log)
	}
	// The fake host drops state-transfer decisions; the tail counts them.
	if err := h.hd.Receive(0, frames[wire.FrameRecoverResp]); err != nil || h.env.Cnt.RecoveryFetchedMsgs.Load() != 1 {
		t.Fatalf("recover-resp: %v, %d fetched", err, h.env.Cnt.RecoveryFetchedMsgs.Load())
	}
	for _, kind := range []uint8{wire.FrameRecoverReq, wire.FrameSnapReq, wire.FrameSnapResp, wire.FramePayloadResp} {
		if err := h.hd.Receive(0, frames[kind]); err != nil {
			t.Errorf("kind %d: %v", kind, err)
		}
	}

	plain := newHost(1, 3, func(c *engine.Config) { c.Dissemination = dissem.Ring })
	for _, kind := range []uint8{wire.FrameAnnounce, wire.FramePayloadFetch, wire.FramePayloadResp} {
		if err := plain.hd.Receive(0, frames[kind]); !errors.Is(err, errNoDigest) {
			t.Errorf("kind %d without digest ordering: %v", kind, err)
		}
	}
	inner := []byte{wire.FrameBatch, 9}
	relay := frameOf(func(w *wire.Writer) { wire.AppendRelayFrame(w, wire.RelayHeader{Origin: 2, Seq: 5, Hops: 1}, inner) })
	if err := plain.hd.Receive(2, relay); err != nil || len(plain.inbound) != 1 || len(plain.relays) != 0 {
		t.Fatalf("payload-mode relay: %v, handed back %d, forwarded %d", err, len(plain.inbound), len(plain.relays))
	}
	if got := plain.inbound[0]; got.to != 2 || got.h != (wire.RelayHeader{Origin: 2, Seq: 5, Hops: 1}) || !bytes.Equal(got.inner, inner) {
		t.Fatalf("handed back %+v", got)
	}
	for _, bad := range [][]byte{nil, {wire.FrameBatch, 0, 0, 0, 0}, {99}, frames[wire.FrameSnapReq][:5]} {
		if err := h.hd.Receive(0, bad); err == nil {
			t.Errorf("frame %x accepted", bad)
		}
	}
}

// TestFrameByteAccounting: a broadcast frame is dissemination cost once per
// member, a relay frame (header included) once per hop, as ordering cost
// when the caller says so (a relayed proposal).
func TestFrameByteAccounting(t *testing.T) {
	frame := []byte{wire.FrameBatch, 1, 2, 3}
	relayed := int64(len(frame)) + 14 // kind, origin, seq, hops
	all := newHost(0, 4, nil)
	all.hd.Spread(frame, 100)
	if got := all.env.Cnt.DisseminatedBytes.Load(); got != 3*int64(len(frame)) {
		t.Fatalf("broadcast: %d disseminated bytes", got)
	}
	ring := newHost(0, 4, func(c *engine.Config) { c.Dissemination = dissem.Ring })
	ring.hd.Spread(frame, 100)
	ring.hd.Relay(frame, 100, true)
	c := &ring.env.Cnt
	if c.DisseminatedBytes.Load() != relayed || c.OrderedBytes.Load() != relayed || c.PayloadBytesSent.Load() != 200 {
		t.Fatalf("ring origin: disseminated %d, ordered %d, payload %d", c.DisseminatedBytes.Load(), c.OrderedBytes.Load(), c.PayloadBytesSent.Load())
	}
	mid := newHost(1, 4, func(c *engine.Config) { c.Dissemination = dissem.Ring })
	mid.hd.Accept(wire.RelayHeader{Origin: 0, Seq: 1}, frame, 100, true)
	mid.hd.Accept(wire.RelayHeader{Origin: 0, Seq: 2}, frame, 100, false)
	if c := &mid.env.Cnt; c.DisseminatedBytes.Load() != relayed || c.OrderedBytes.Load() != relayed {
		t.Fatalf("forward: disseminated %d, ordered %d", c.DisseminatedBytes.Load(), c.OrderedBytes.Load())
	}
}

// FuzzReceive: the one router, in front of a tail in digest mode on a ring,
// takes arbitrary bytes and returns nil or an error — never a panic, never
// a hang.
func FuzzReceive(f *testing.F) {
	for _, frame := range routerFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newHost(1, 3, func(c *engine.Config) { c.DigestOrdering = true; c.Dissemination = dissem.Ring })
		_ = h.hd.Receive(0, data)
		_ = h.hd.Receive(2, data) // again, now that state may have moved
	})
}
