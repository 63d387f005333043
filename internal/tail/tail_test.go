package tail

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"modab/internal/dedup"
	"modab/internal/engine"
	"modab/internal/enginetest"
	"modab/internal/member"
	"modab/internal/pool"
	"modab/internal/types"
	"modab/internal/wire"
)

// sent is one tail message the fake host was asked to transmit.
type sent struct {
	kind string
	to   types.ProcessID
	arg  uint64 // RecoverReq.From, SnapReq.Offset, descriptor DSeq
}

// fakeHost is a minimal engine around a Tail (whose pool is its pending
// set): a decision log and a strictly in-order decision path that commits
// through the tail. It records everything the tail asks of it.
type fakeHost struct {
	t        *Tail
	env      *enginetest.Env
	cfg      engine.Config
	log      map[uint64]wire.Batch
	sent     []sent
	timers   map[Timer]bool
	views    []member.View
	advanced int
	caughtUp int
	installs []uint64 // Next at each Installed callback
}

var _ Host = (*fakeHost)(nil)

func newHost(self types.ProcessID, n int, mod func(*engine.Config)) *fakeHost {
	h := &fakeHost{
		env:    enginetest.New(self, n),
		cfg:    engine.DefaultConfig(n),
		log:    make(map[uint64]wire.Batch),
		timers: make(map[Timer]bool),
	}
	if mod != nil {
		mod(&h.cfg)
	}
	h.t = New(h.env, &h.cfg, h)
	return h
}

// Send decodes every frame the tail sends, so each record is also a check
// of the tail's encoding.
func (h *fakeHost) Send(to types.ProcessID, frame []byte) {
	var rec sent
	var err error
	switch wire.FrameKind(frame) {
	case wire.FrameRecoverReq:
		var req wire.RecoverReq
		req, err = wire.UnmarshalRecoverReq(frame)
		rec = sent{"recover-req", to, req.From}
	case wire.FrameRecoverResp:
		var resp wire.RecoverResp
		resp, err = wire.UnmarshalRecoverResp(frame)
		rec = sent{"recover-resp", to, uint64(len(resp.Decisions))}
	case wire.FrameSnapReq:
		var req wire.SnapReq
		req, err = wire.UnmarshalSnapReq(frame)
		rec = sent{"snap-req", to, req.Offset}
	case wire.FrameSnapResp:
		var resp wire.SnapResp
		resp, err = wire.UnmarshalSnapResp(frame)
		rec = sent{"snap-resp", to, resp.Offset}
	case wire.FramePayloadFetch:
		var d wire.Descriptor
		d, err = wire.UnmarshalPayloadFetch(frame)
		rec = sent{"payload-fetch", to, d.DSeq}
	case wire.FramePayloadResp:
		var d wire.Descriptor
		d, _, err = wire.UnmarshalPayloadRespFrame(frame)
		rec = sent{"payload-resp", to, d.DSeq}
	default:
		err = wire.ErrBadFrame
	}
	if err != nil {
		panic(fmt.Sprintf("tail sent an undecodable frame %x: %v", frame, err))
	}
	h.sent = append(h.sent, rec)
}
func (h *fakeHost) SetTimer(id Timer, d time.Duration)   { h.timers[id] = true }
func (h *fakeHost) CancelTimer(id Timer)                 { h.timers[id] = false }
func (h *fakeHost) Decision(k uint64) (wire.Batch, bool) { b, ok := h.log[k]; return b, ok }
func (h *fakeHost) Decided(k uint64, b wire.Batch) {
	if k == h.t.Next() {
		h.commit(k, b, nil)
	}
}
func (h *fakeHost) Advanced()                 { h.advanced++ }
func (h *fakeHost) Installed()                { h.installs = append(h.installs, h.t.Next()) }
func (h *fakeHost) CaughtUp()                 { h.caughtUp++ }
func (h *fakeHost) ViewChanged(v member.View) { h.views = append(h.views, v) }

// commit is the host's in-order decision path: commit through the tail,
// advance the watermark (the modular order).
func (h *fakeHost) commit(k uint64, b wire.Batch, descs []wire.Descriptor) {
	h.t.Commit(k, b, descs)
	h.t.Advance(k)
}

// pending returns the IDs left in the tail's pool, in order.
func (h *fakeHost) pending() []types.MsgID {
	var ids []types.MsgID
	h.t.Pool.Each(func(e *pool.Entry) { ids = append(ids, e.Msg.ID) })
	return ids
}

// take returns and clears the recorded sends.
func (h *fakeHost) take() []sent {
	s := h.sent
	h.sent = nil
	return s
}

func app(sender types.ProcessID, seq uint64) wire.AppMsg {
	return wire.AppMsg{ID: types.MsgID{Sender: sender, Seq: seq}, Body: []byte{byte(sender), byte(seq)}}
}

func run(sender types.ProcessID, first, count uint64) wire.Batch {
	b := make(wire.Batch, count)
	for i := range b {
		b[i] = app(sender, first+uint64(i))
	}
	return b
}

func descriptor(t *testing.T, b wire.Batch, dseq uint64) wire.Descriptor {
	t.Helper()
	d, err := wire.DescriptorFor(b, dseq)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func digest(c *engine.Config) { c.DigestOrdering = true }

func deliveredIDs(env *enginetest.Env) []types.MsgID {
	ids := make([]types.MsgID, len(env.Deliveries))
	for i, d := range env.Deliveries {
		ids[i] = d.Msg.ID
	}
	return ids
}

func TestResolve(t *testing.T) {
	resident, missing, done := run(1, 1, 2), run(2, 1, 2), run(1, 3, 1)
	raw := wire.AppMsg{ID: types.MsgID{Sender: 2, Seq: 9}, Body: []byte("raw")}
	for _, tc := range []struct {
		name    string
		decided func(t *testing.T) wire.Batch
		want    wire.Batch
		descs   int
		blocked bool
	}{
		{"resident", func(t *testing.T) wire.Batch {
			return wire.Batch{descriptor(t, resident, 1).AppMsg()}
		}, resident, 1, false},
		{"blocked", func(t *testing.T) wire.Batch {
			return wire.Batch{descriptor(t, resident, 1).AppMsg(), descriptor(t, missing, 1).AppMsg()}
		}, nil, 0, true},
		{"range already delivered", func(t *testing.T) wire.Batch {
			return wire.Batch{descriptor(t, done, 2).AppMsg(), descriptor(t, resident, 1).AppMsg()}
		}, resident, 2, false},
		{"non-descriptor passes through", func(t *testing.T) wire.Batch {
			return wire.Batch{raw, descriptor(t, resident, 1).AppMsg()}
		}, append(wire.Batch{raw}, resident...), 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHost(0, 3, digest)
			h.t.Store.PutBatch(resident)
			h.t.Delivered.Mark(done[0].ID) // delivered, payload never resident
			got, descs, blocked := h.t.Resolve(tc.decided(t))
			if blocked != tc.blocked || len(descs) != tc.descs || len(got) != len(tc.want) {
				t.Fatalf("Resolve = %d msgs, %d descs, blocked %v; want %d, %d, %v",
					len(got), len(descs), blocked, len(tc.want), tc.descs, tc.blocked)
			}
			for i := range got {
				if got[i].ID != tc.want[i].ID || !bytes.Equal(got[i].Body, tc.want[i].Body) {
					t.Fatalf("resolved[%d] = %v, want %v", i, got[i].ID, tc.want[i].ID)
				}
			}
		})
	}
}

// envelope encodes a snapshot at index whose dedup state covers the given
// messages.
func envelope(index uint64, covered ...types.MsgID) []byte {
	dm := dedup.NewMap(3)
	for _, id := range covered {
		dm.Mark(id)
	}
	env := wire.SnapshotEnvelope{Index: index, Dedup: dm.MarshalBytes(), State: bytes.Repeat([]byte{7}, 90)}
	w := wire.NewWriter(env.WireSize())
	env.Marshal(w)
	return w.Bytes()
}

// fetching returns a host that restarted at instance 1 and is fetching the
// snapshot at index 10 from p1, with the installs it performs.
func fetching(t *testing.T) (*fakeHost, *[]wire.SnapshotEnvelope) {
	t.Helper()
	var installed []wire.SnapshotEnvelope
	h := newHost(0, 3, func(c *engine.Config) {
		c.Snapshots = &engine.SnapshotHooks{Install: func(env wire.SnapshotEnvelope) error {
			installed = append(installed, env)
			return nil
		}}
	})
	h.t.BeginRecovery()
	h.t.RecoverResp(1, wire.RecoverResp{UpTo: 12, SnapIndex: 10})
	if got := h.take(); len(got) != 2 || got[1] != (sent{"snap-req", 1, 0}) {
		t.Fatalf("entering the snapshot branch sent %v", got)
	}
	return h, &installed
}

func TestSnapshotChunkAssembly(t *testing.T) {
	env10, env11 := envelope(10), envelope(11)
	half := len(env10) / 2
	chunk := func(index uint64, env []byte, from, to int) wire.SnapResp {
		return wire.SnapResp{Index: index, Total: uint64(len(env)), Offset: uint64(from), UpTo: 12, Data: env[from:to]}
	}
	for _, tc := range []struct {
		name    string
		chunks  []wire.SnapResp
		install uint64 // index installed, 0 = none
		aborted bool   // fetch abandoned: later chunks from the peer are ignored
	}{
		{"in order", []wire.SnapResp{chunk(10, env10, 0, half), chunk(10, env10, half, len(env10))}, 10, false},
		{"duplicate", []wire.SnapResp{
			chunk(10, env10, 0, half), chunk(10, env10, 0, half), chunk(10, env10, half, len(env10)),
		}, 10, false},
		{"reordered", []wire.SnapResp{
			chunk(10, env10, half, len(env10)), chunk(10, env10, 0, half), chunk(10, env10, half, len(env10)),
		}, 10, false},
		{"snapshot rotated mid-fetch", []wire.SnapResp{
			chunk(10, env10, 0, half), chunk(11, env11, half, len(env11)), // stale offset: restart at 0
			chunk(11, env11, 0, half), chunk(11, env11, half, len(env11)),
		}, 11, false},
		{"oversize", []wire.SnapResp{
			chunk(10, env10, 0, half),
			{Index: 10, Total: uint64(len(env10)), Offset: uint64(half), UpTo: 12, Data: append(env10[half:len(env10):len(env10)], 0)},
		}, 0, true},
		{"total changed", []wire.SnapResp{
			chunk(10, env10, 0, half),
			{Index: 10, Total: 1 << 30, Offset: uint64(half), UpTo: 12, Data: env10[half:]},
		}, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, installed := fetching(t)
			for _, c := range tc.chunks {
				h.t.SnapResp(1, c)
			}
			switch {
			case tc.install == 0 && len(*installed) != 0:
				t.Fatalf("installed %d envelopes, want none", len(*installed))
			case tc.install != 0 && (len(*installed) != 1 || (*installed)[0].Index != tc.install):
				t.Fatalf("installed %v, want index %d", *installed, tc.install)
			case tc.install != 0 && (h.t.Next() != tc.install+1 || len(h.installs) != 1):
				t.Fatalf("Next = %d, Installed callbacks %v after installing %d", h.t.Next(), h.installs, tc.install)
			}
			h.take()
			h.t.SnapResp(1, chunk(10, env10, 0, half))
			if got := h.take(); tc.aborted && len(got) != 0 {
				t.Fatalf("an aborted fetch still answered a chunk with %v", got)
			}
			if tc.aborted && len(h.t.snap.buf) != 0 {
				t.Fatalf("aborted fetch keeps %d buffered bytes", len(h.t.snap.buf))
			}
		})
	}
}

func TestSnapshotInstallRetiresCoveredState(t *testing.T) {
	h, _ := fetching(t)
	own, other, late := app(0, 1), app(1, 1), app(0, 2)
	h.t.Flow.Resume(2, []uint64{1, 2})
	for _, m := range []wire.AppMsg{own, other, late} {
		h.t.Pool.Add(m, 1)
	}
	// Our proposals for instances 5 (covered) and 12 (not) carried late.
	h.t.Pool.Assign(wire.Batch{late}, 5)
	env := envelope(10, own.ID, other.ID)
	h.t.SnapResp(1, wire.SnapResp{Index: 10, Total: uint64(len(env)), UpTo: 12, Data: env})
	if got := h.pending(); len(got) != 1 || got[0] != late.ID {
		t.Fatalf("pending after install = %v, want only the uncovered own message", got)
	}
	if b := h.t.Pool.Take(h.t.Next()+1, h.t.Hist.Current(), 0); len(b) != 1 {
		t.Fatalf("proposable after install = %v: the covered instance's assignment must be released", b)
	}
	if got := h.t.Flow.InFlight(); got != 1 {
		t.Fatalf("in-flight after install = %d, want 1 (the covered own slot released)", got)
	}
	if c := &h.env.Cnt; c.SnapshotInstalls.Load() != 1 {
		t.Fatalf("SnapshotInstalls = %d", c.SnapshotInstalls.Load())
	}
	// Catch-up resumes above the snapshot, from the peer that served it.
	if got := h.take(); len(got) != 1 || got[0] != (sent{"recover-req", 1, 11}) {
		t.Fatalf("after install sent %v", got)
	}
}

// TestInstallReportsAdoptedViews: a view adopted from an installed snapshot
// reaches OnConfig as well as the host, so a real-time node retargets its
// failure detector at once instead of at its next restart or config change.
func TestInstallReportsAdoptedViews(t *testing.T) {
	var notified []member.View
	var ops []member.Op
	h := newHost(0, 3, func(c *engine.Config) {
		c.Snapshots = &engine.SnapshotHooks{Install: func(wire.SnapshotEnvelope) error { return nil }}
		c.OnConfig = func(v member.View, op member.Op) {
			notified, ops = append(notified, v), append(ops, op)
		}
	})
	h.t.BeginRecovery()
	h.t.RecoverResp(1, wire.RecoverResp{UpTo: 12, SnapIndex: 10})
	h.take()
	grown := member.View{Epoch: 1, Activation: 6, Members: []types.ProcessID{0, 1, 2, 3}}
	env := wire.SnapshotEnvelope{
		Index: 10, Dedup: dedup.NewMap(3).MarshalBytes(),
		Views: []member.View{h.t.Hist.Current(), grown},
	}
	w := wire.NewWriter(env.WireSize())
	env.Marshal(w)
	h.t.SnapResp(1, wire.SnapResp{Index: 10, Total: uint64(len(w.Bytes())), UpTo: 12, Data: w.Bytes()})
	if h.t.Next() != 11 || len(h.views) != 1 {
		t.Fatalf("install: Next %d, ViewChanged %d", h.t.Next(), len(h.views))
	}
	if len(notified) != 1 || notified[0].Epoch != 1 || !notified[0].Contains(3) || ops[0] != (member.Op{}) {
		t.Fatalf("OnConfig saw %v with ops %v, want the adopted epoch-1 view with a zero op", notified, ops)
	}
}

func TestCommit(t *testing.T) {
	t.Run("ordered by two pipelined instances, delivered once", func(t *testing.T) {
		h := newHost(0, 3, func(c *engine.Config) { c.PipelineDepth = 2 })
		a, b, c := app(1, 1), app(2, 1), app(1, 2)
		h.commit(1, wire.Batch{b, a}, nil)
		h.commit(2, wire.Batch{c, a}, nil)
		want := []types.MsgID{a.ID, b.ID, c.ID} // sorted within an instance
		if got := deliveredIDs(h.env); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("delivered %v, want %v", got, want)
		}
		if got := h.env.Deliveries[2].Instance; got != 2 {
			t.Fatalf("third delivery attributed to instance %d", got)
		}
	})
	t.Run("config op consumes its slot and releases flow, undelivered", func(t *testing.T) {
		var notified []member.Op
		h := newHost(0, 3, func(c *engine.Config) {
			c.OnConfig = func(_ member.View, op member.Op) { notified = append(notified, op) }
		})
		op, err := h.t.Hist.Current().Stamp(member.Op{Kind: member.OpAdd, Target: 3})
		if err != nil {
			t.Fatal(err)
		}
		id, _ := h.t.Flow.Admit()
		plain, _ := h.t.Flow.Admit()
		h.commit(1, wire.Batch{
			{ID: id, Body: member.EncodeOp(op)},
			{ID: plain, Body: []byte("x")},
		}, nil)
		if got := deliveredIDs(h.env); len(got) != 1 || got[0] != plain {
			t.Fatalf("delivered %v, want only the application message", got)
		}
		if h.t.Flow.InFlight() != 0 || h.env.Cnt.Retransmissions.Load() != 0 {
			t.Fatalf("in-flight %d, bad releases %d after the commit", h.t.Flow.InFlight(), h.env.Cnt.Retransmissions.Load())
		}
		cur := h.t.Hist.Current()
		if cur.Epoch != 1 || !cur.Contains(3) || cur.Activation != 2 {
			t.Fatalf("view after the add: %+v", cur)
		}
		if len(h.views) != 1 || len(notified) != 1 || h.env.Cnt.ConfigChanges.Load() != 1 {
			t.Fatalf("ViewChanged %d, OnConfig %d, ConfigChanges %d", len(h.views), len(notified), h.env.Cnt.ConfigChanges.Load())
		}
		// The same op decided again fails its epoch CAS: a silent no-op.
		again, _ := h.t.Flow.Admit()
		h.commit(2, wire.Batch{{ID: again, Body: member.EncodeOp(op)}}, nil)
		if len(h.views) != 1 || h.t.Flow.InFlight() != 0 {
			t.Fatalf("replayed op: ViewChanged %d, in-flight %d", len(h.views), h.t.Flow.InFlight())
		}
	})
	t.Run("removed origin retired at its activation boundary", func(t *testing.T) {
		h := newHost(0, 3, func(c *engine.Config) { c.DigestOrdering = true; c.PipelineDepth = 3 })
		orphan := run(2, 1, 2)
		d := descriptor(t, orphan, 1)
		if !h.t.Announce(d, orphan) {
			t.Fatal("announce of a member's batch must need ordering")
		}
		h.t.Pool.Add(d.AppMsg(), 1)
		h.t.Suspected[2] = true
		op, _ := h.t.Hist.Current().Stamp(member.Op{Kind: member.OpRemove, Target: 2})
		h.commit(1, wire.Batch{{ID: types.MsgID{Sender: 1, Seq: 1}, Body: member.EncodeOp(op)}}, nil)
		// Decided at 1 with W=3: activation 4, so instance 3 is the last
		// old-view instance — nothing may be retired before it commits.
		h.commit(2, nil, nil)
		if h.t.Pool.Len() != 1 || h.t.Store.Len() != 2 {
			t.Fatalf("retired before the boundary: pending %d, resident %d", h.t.Pool.Len(), h.t.Store.Len())
		}
		h.commit(3, nil, nil)
		if h.t.Pool.Len() != 0 || h.t.Store.Len() != 0 || h.t.Suspected[2] {
			t.Fatalf("after the boundary: pending %d, resident %d, suspected %v",
				h.t.Pool.Len(), h.t.Store.Len(), h.t.Suspected[2])
		}
		if got := h.env.Cnt.PayloadsRetired.Load(); got != 2 {
			t.Fatalf("PayloadsRetired = %d, want 2", got)
		}
		if h.t.Announce(d, orphan) {
			t.Fatal("a removed origin's announce must be ignored")
		}
	})
	t.Run("covered sibling descriptor swept", func(t *testing.T) {
		h := newHost(0, 3, digest)
		whole, part := run(1, 1, 3), run(1, 2, 2)
		dw, dp := descriptor(t, whole, 1), descriptor(t, part, 1<<wire.DSeqIncarnationShift|1)
		h.t.Store.PutBatch(whole)
		h.t.Pool.Add(dp.AppMsg(), 1)
		resolved, descs, blocked := h.t.Resolve(wire.Batch{dw.AppMsg()})
		if blocked {
			t.Fatal("resident payload blocked")
		}
		h.commit(1, resolved, descs)
		if got := h.pending(); len(got) != 0 {
			t.Fatalf("regrouped sibling still pending: %v", got)
		}
		if h.t.Offer(wire.Batch{dp.AppMsg(), dw.AppMsg()}, 1); h.t.Pool.Len() != 0 {
			t.Fatal("decided descriptors must be settled: offered, they were pooled")
		}
	})
}

func TestFetchTargetRotation(t *testing.T) {
	missing := run(1, 1, 1)
	blockedHost := func(t *testing.T, self types.ProcessID, n int) (*fakeHost, wire.Batch) {
		h := newHost(self, n, digest)
		head := wire.Batch{descriptor(t, missing, 1).AppMsg()}
		if _, _, blocked := h.t.Resolve(head); !blocked {
			t.Fatal("missing payload must block")
		}
		h.t.Block()
		if !h.t.Blocked() || !h.timers[TimerPayload] {
			t.Fatal("Block must arm the payload timer")
		}
		return h, head
	}
	targets := func(h *fakeHost, head wire.Batch, fires int) []types.ProcessID {
		var out []types.ProcessID
		for i := 0; i < fires; i++ {
			h.t.FetchMissing(head)
			for _, s := range h.take() {
				out = append(out, s.to)
			}
		}
		return out
	}
	t.Run("skips self and suspects", func(t *testing.T) {
		h, head := blockedHost(t, 1, 4)
		h.t.Suspected[2] = true
		if got := fmt.Sprint(targets(h, head, 4)); got != "[p4 p1 p4 p1]" {
			t.Fatalf("targets %s", got)
		}
		if got := h.env.Cnt.PayloadFetches.Load(); got != 4 {
			t.Fatalf("PayloadFetches = %d", got)
		}
	})
	t.Run("everyone suspected: plain rotation", func(t *testing.T) {
		h, head := blockedHost(t, 0, 3)
		h.t.Suspected[1], h.t.Suspected[2] = true, true
		if got := fmt.Sprint(targets(h, head, 3)); got != "[p2 p3 p2]" {
			t.Fatalf("targets %s", got)
		}
	})
	t.Run("after a view shrink", func(t *testing.T) {
		h, head := blockedHost(t, 0, 4)
		if got := fmt.Sprint(targets(h, head, 2)); got != "[p2 p3]" {
			t.Fatalf("targets before the remove %s", got)
		}
		op, _ := h.t.Hist.Current().Stamp(member.Op{Kind: member.OpRemove, Target: 3})
		h.commit(1, wire.Batch{{ID: types.MsgID{Sender: 2, Seq: 7}, Body: member.EncodeOp(op)}}, nil)
		if got := fmt.Sprint(targets(h, head, 3)); got != "[p2 p3 p2]" {
			t.Fatalf("targets after the remove %s", got)
		}
	})
	t.Run("no peers", func(t *testing.T) {
		h, head := blockedHost(t, 0, 1)
		if got := targets(h, head, 2); len(got) != 0 {
			t.Fatalf("a singleton group fetched from %v", got)
		}
	})
	t.Run("resident head fetches nothing, unblock accounts the wait", func(t *testing.T) {
		h, head := blockedHost(t, 0, 3)
		h.env.Clock = 5 * time.Millisecond
		h.t.PayloadResp(missing)
		if h.advanced != 1 {
			t.Fatalf("Advanced callbacks = %d", h.advanced)
		}
		if got := targets(h, head, 1); len(got) != 0 {
			t.Fatalf("fetched a resident payload from %v", got)
		}
		h.t.Unblock()
		if h.t.Blocked() || h.timers[TimerPayload] || h.env.Cnt.PayloadFetchNanos.Load() != int64(5*time.Millisecond) {
			t.Fatalf("after Unblock: blocked %v, timer %v, nanos %d",
				h.t.Blocked(), h.timers[TimerPayload], h.env.Cnt.PayloadFetchNanos.Load())
		}
	})
}

func TestRecoverTimerStallRetryAbandon(t *testing.T) {
	h, _ := fetching(t)
	env := envelope(10)
	step := func(want ...sent) {
		t.Helper()
		h.t.RecoverTimer()
		if got := h.take(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("timer fire sent %v, want %v", got, want)
		}
		if !h.timers[TimerRecover] {
			t.Fatal("timer not re-armed while catching up")
		}
	}
	h.t.SnapResp(1, wire.SnapResp{Index: 10, Total: uint64(len(env)), UpTo: 12, Data: env[:40]})
	h.take()
	step()                                     // progress since the last fire: just re-arm
	step(sent{"snap-req", 1, 40})              // stalled once: retry the chunk
	step(sent{"recover-req", types.Nobody, 1}) // still stalled: abandon, re-announce
	if h.t.snap.active {
		t.Fatal("abandoned fetch still active")
	}
	step(sent{"recover-req", types.Nobody, 1}) // no progress without a fetch: re-announce
	// A chunk that advances the watermark keeps the timer quiet.
	h.log[1] = wire.Batch{app(1, 1)}
	h.t.RecoverResp(2, wire.RecoverResp{UpTo: 12, Decisions: []wire.DecidedInstance{{K: 1, Batch: h.log[1]}}})
	if got := h.take(); len(got) != 1 || got[0] != (sent{"recover-req", 2, 2}) {
		t.Fatalf("advancing chunk pulled %v", got)
	}
	step()
	// Quorum (one peer of three) reported and the target is passed: done.
	var rest []wire.DecidedInstance
	for k := uint64(2); k <= 12; k++ {
		rest = append(rest, wire.DecidedInstance{K: k, Batch: wire.Batch{app(1, k)}})
	}
	h.t.RecoverResp(2, wire.RecoverResp{UpTo: 12, Decisions: rest})
	if h.caughtUp != 1 || h.t.Rec.Active() || h.timers[TimerRecover] {
		t.Fatalf("catch-up not finished: CaughtUp %d, active %v, timer %v", h.caughtUp, h.t.Rec.Active(), h.timers[TimerRecover])
	}
	h.t.RecoverTimer()
	if got := h.take(); len(got) != 0 || h.timers[TimerRecover] {
		t.Fatalf("timer after the catch-up sent %v", got)
	}
}

func TestRecoverReqServesContiguousChunk(t *testing.T) {
	h := newHost(0, 3, func(c *engine.Config) {
		c.Snapshots = &engine.SnapshotHooks{Latest: func() (uint64, bool) { return 2, true }}
	})
	for k := uint64(1); k <= 5; k++ {
		if k != 4 { // a hole: the run served must stop before it
			h.log[k] = wire.Batch{app(1, k)}
		}
		h.t.Advance(k)
	}
	h.t.RecoverReq(2, wire.RecoverReq{From: 2})
	if got := h.take(); len(got) != 1 || got[0] != (sent{"recover-resp", 2, 2}) {
		t.Fatalf("served %v, want instances 2 and 3", got)
	}
	if h.env.Cnt.Retransmissions.Load() != 1 {
		t.Fatalf("Retransmissions = %d", h.env.Cnt.Retransmissions.Load())
	}
}

func TestRestartAdoptsReplayedState(t *testing.T) {
	hist := member.NewHistory(3)
	add, _ := hist.Current().Stamp(member.Op{Kind: member.OpAdd, Target: 3})
	hist.Apply(add, 2, 1)
	delivered := dedup.NewMap(3)
	delivered.Mark(types.MsgID{Sender: 0, Seq: 1})
	own := wire.Batch{app(0, 5), app(0, 2), app(0, 3)}
	h := newHost(0, 3, func(c *engine.Config) {
		c.DigestOrdering = true
		c.Recovered = &engine.RecoveredState{NextDecide: 4, Delivered: delivered, Own: own, NextSeq: 6, Boots: 2,
			Views: hist.Views()}
	})
	if h.t.Next() != 4 || h.t.Flow.InFlight() != 3 || !h.t.Delivered.Seen(types.MsgID{Sender: 0, Seq: 1}) {
		t.Fatalf("adopted Next %d, in-flight %d", h.t.Next(), h.t.Flow.InFlight())
	}
	if id, err := h.t.Flow.Admit(); err != nil || id.Seq != 6 {
		t.Fatalf("sequence numbering resumed at %d (%v), want 6", id.Seq, err)
	}
	cur := h.t.Hist.Current()
	if cur.Epoch != 1 || !cur.Contains(3) || cur.Activation != 3 || len(h.t.Hist.Views()) != 2 {
		t.Fatalf("restored views: %+v", h.t.Hist.Views())
	}
	if len(h.views) != 0 {
		t.Fatal("New must not call the host")
	}
	h.t.ReplayViews()
	if len(h.views) != 1 || h.views[0].Epoch != 1 {
		t.Fatalf("ReplayViews handed over %v", h.views)
	}
}
