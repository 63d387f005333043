// Package head is what both atomic broadcast stacks run in front of
// ordering — admission → batching → dissemination, written once — as
// internal/tail is what both run behind a decision. What a sealed entry does
// next (§3.3 diffuse and propose, §4.2 forward and piggyback) is ordering and
// stays in the engine, behind Host (docs/ARCHITECTURE.md, "Shared head"). A
// Head is a plain struct driven from its engine's event loop, not a
// stack.Layer: it adds no dispatch. Receive is the one router of the tail's
// and the head's wire frames, in both stacks.
package head

import (
	"errors"
	"fmt"

	"modab/internal/batch"
	"modab/internal/dissem"
	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/obs"
	"modab/internal/tail"
	"modab/internal/types"
	"modab/internal/wire"
)

// Host is what a Head needs from its engine: the tail's host (one Send, the
// timer namespace), where entries enter ordering, and the decoding of a
// payload-mode ring relay, whose inner frame is the engine's own.
type Host interface {
	tail.Host
	// Sealed hands over what ordering carries for one sealed own batch: its
	// messages, or under digest ordering their already announced descriptor.
	Sealed(entries wire.Batch)
	// Announced: a peer's descriptor is resident and still needs ordering.
	Announced(pm wire.AppMsg)
	// Relayed hands back a received payload-mode ring relay: the engine
	// decodes inner (a modular diffuse frame, a monolithic proposal), passes
	// it through Accept and processes it when Accept says so.
	Relayed(from types.ProcessID, hdr wire.RelayHeader, inner []byte) error
}

// Head is one engine's admission, batching and dissemination state.
type Head struct {
	env engine.Env
	cfg *engine.Config // the owning engine's configuration, shared
	t   *tail.Tail     // flow window, view history, payload store
	h   Host
	// acc (nil: batching off) holds admitted messages until a trigger seals.
	acc      *batch.Accumulator
	diss     dissem.Disseminator
	nextDSeq uint64 // mints incarnation-tagged descriptor sequence numbers
	// Backlog is the replayed own backlog as ordering carries it (regroup).
	Backlog wire.Batch
}

// New builds the head of the engine owning t. It never calls h.
func New(env engine.Env, cfg *engine.Config, t *tail.Tail, h Host) *Head {
	st := cfg.Recovered
	if st == nil {
		st = new(engine.RecoveredState) // first boot: incarnation 0, no backlog
	}
	hd := &Head{env: env, cfg: cfg, t: t, h: h, Backlog: st.Own, nextDSeq: st.Boots << wire.DSeqIncarnationShift}
	hd.diss = dissem.New(cfg.Dissemination, env.Self(), env.N(), st.Boots)
	if cfg.Batch.Enabled() {
		hd.acc = batch.NewAccumulator(cfg.Batch)
	}
	if cfg.DigestOrdering {
		hd.Backlog = hd.regroup(hd.Backlog)
	}
	return hd
}

// Abcast admits one payload: its own batch, or accumulated until a trigger.
func (h *Head) Abcast(body []byte) (types.MsgID, error) {
	id, err := h.t.Flow.Admit()
	if err != nil {
		return types.MsgID{}, err
	}
	msg := wire.AppMsg{ID: id, Body: body}
	c := h.env.Counters()
	c.ABCast.Add(1)
	c.Dispatches.Add(1) // application downcall into the stack
	h.cfg.Obs.Submitted(id, h.env.Now())
	if h.acc == nil {
		h.seal(wire.Batch{msg})
		return id, nil
	}
	sealed, act := h.acc.Add(msg)
	for _, b := range sealed {
		h.seal(b)
	}
	switch act {
	case batch.TimerArm:
		h.h.SetTimer(tail.TimerFlush, h.cfg.Batch.MaxDelay)
	case batch.TimerCancel:
		h.h.CancelTimer(tail.TimerFlush)
	}
	return id, nil
}

// SubmitConfig abcasts an epoch-stamped config op like any other message.
func (h *Head) SubmitConfig(op member.Op) (types.MsgID, error) {
	op, err := h.t.Hist.Current().Stamp(op)
	if err != nil {
		return types.MsgID{}, err
	}
	return h.Abcast(member.EncodeOp(op))
}

// Flush, the flush-timer body, seals what accumulated (false: nothing had).
func (h *Head) Flush() bool { return h.acc != nil && h.seal(h.acc.Flush()) }

// seal moves one sealed own batch (empty: nothing, false) toward ordering,
// logged first: nothing reaches the wire that a restarted incarnation would
// not find in its log. Own batches are contiguous, so describe fails only on
// a shape bug: the raw messages are then ordered, not lost.
func (h *Head) seal(b wire.Batch) bool {
	if len(b) == 0 {
		return false
	}
	if p := h.cfg.Persist; p != nil {
		p.PersistAdmit(b)
	}
	if c := h.env.Counters(); h.acc != nil {
		c.SenderBatches.Add(1)
		c.SenderBatchedMsgs.Add(int64(len(b)))
	}
	if o := h.cfg.Obs; o != nil {
		now := h.env.Now()
		for _, m := range b {
			o.Stage(m.ID, obs.StageSeal, now)
		}
	}
	entries := b
	if h.cfg.DigestOrdering {
		if d, err := h.describe(b); err == nil {
			entries = wire.Batch{d.AppMsg()}
			h.announce(d, b)
		}
	}
	h.h.Sealed(entries)
	return true
}

// describe mints own batch b's descriptor and makes the payload resident.
func (h *Head) describe(b wire.Batch) (wire.Descriptor, error) {
	h.nextDSeq++
	d, err := wire.DescriptorFor(b, h.nextDSeq)
	if err == nil {
		h.t.Store.PutBatch(b)
	}
	return d, err
}

// regroup rebuilds a replayed own backlog as one resident batch and fresh
// descriptor per maximal contiguous sequence run (a gap is what an old
// decision ordered); delivery dedup absorbs runs unlike the pre-crash ones.
func (h *Head) regroup(own wire.Batch) (entries wire.Batch) {
	msgs := append(wire.Batch(nil), own...)
	msgs.SortDeterministic()
	for start, end := 0, 0; start < len(msgs); start = end {
		for end = start + 1; end < len(msgs) && msgs[end].ID.Seq == msgs[end-1].ID.Seq+1; end++ {
		}
		if d, err := h.describe(msgs[start:end]); err == nil {
			entries = append(entries, d.AppMsg())
		}
	}
	return entries
}

// announce spreads digest ordering's one payload-bearing frame.
func (h *Head) announce(d wire.Descriptor, b wire.Batch) {
	w := wire.GetWriter(32 + b.WireSize())
	wire.AppendAnnounceFrame(w, d, b)
	h.Spread(w.Bytes(), b.PayloadBytes())
	wire.PutWriter(w)
}

// Reannounce re-spreads the resident payload of each descriptor in entries
// (sorted in place) and returns how many. One whose bytes left this process
// is skipped: it resolves as delivered, or another holder re-announces it.
func (h *Head) Reannounce(entries wire.Batch) (n int) {
	entries.SortDeterministic() // ascending DSeq: a pseudo-message's Seq
	for _, m := range entries {
		if d, err := wire.ParseDescriptor(m); err == nil {
			if b, ok := h.t.Store.Range(d); ok {
				h.announce(d, b)
				n++
			}
		}
	}
	return n
}

// Spread transmits one payload-bearing dissemination frame as the strategy
// says: n-1 copies from the origin (the paper's behavior), or one around the
// ring.
func (h *Head) Spread(frame []byte, payloadBytes int) {
	if h.Relay(frame, payloadBytes, false) {
		return
	}
	others := int64(h.t.Hist.Current().Others(h.env.Self()))
	c := h.env.Counters()
	c.PayloadBytesSent.Add(int64(payloadBytes) * others)
	c.DisseminatedBytes.Add(int64(len(frame)) * others)
	h.h.Send(types.Nobody, frame)
}

// Relay opens a ring lap for frame and sends it to the first live successor,
// accounting the one transmission as ordering cost when ordered (a relayed
// proposal) and as dissemination otherwise; false: the strategy does not
// relay it, and the caller broadcasts on its own terms.
func (h *Head) Relay(frame []byte, payloadBytes int, ordered bool) bool {
	hdr, to, relay := h.diss.Origin()
	if relay {
		h.env.Counters().PayloadBytesSent.Add(int64(payloadBytes))
		h.relay(to, hdr, frame, ordered)
	}
	return relay
}

// Accept forwards a received relay frame unless its lap is complete, with
// Relay's accounting; false is a duplicate or lapped frame, which the caller
// drops whole.
func (h *Head) Accept(hdr wire.RelayHeader, inner []byte, payloadBytes int, ordered bool) bool {
	nh, to, process, forward := h.diss.Accept(hdr)
	if forward {
		h.env.Counters().PayloadBytesSent.Add(int64(payloadBytes))
		h.relay(to, nh, inner, ordered)
	}
	return process
}

// relay sends inner under relay header hdr to one successor.
func (h *Head) relay(to types.ProcessID, hdr wire.RelayHeader, inner []byte, ordered bool) {
	w := wire.GetWriter(16 + len(inner))
	wire.AppendRelayFrame(w, hdr, inner)
	c := h.env.Counters()
	if ordered {
		c.OrderedBytes.Add(int64(w.Len()))
	} else {
		c.DisseminatedBytes.Add(int64(w.Len()))
	}
	h.h.Send(to, w.Bytes())
	wire.PutWriter(w)
}

// Announce ingests an announce frame (relay set: it came along the ring and
// is forwarded first); a descriptor still to be ordered goes to the host.
func (h *Head) Announce(frame []byte, relay *wire.RelayHeader) error {
	d, b, err := wire.UnmarshalAnnounceFrame(frame)
	if err != nil || relay != nil && !h.Accept(*relay, frame, b.PayloadBytes(), false) {
		return err
	}
	if h.t.Announce(d, b) {
		h.h.Announced(d.AppMsg())
	}
	return nil
}

// Receive is the one router of tail and head frames, in both stacks: the
// engine strips its envelope (a stack tag, a monolithic type byte) and hands
// over the frame, which is decoded once, here, and routed to the tail or the
// head. A payload-mode ring relay goes back to the host (Relayed).
func (h *Head) Receive(from types.ProcessID, frame []byte) error {
	kind := wire.FrameKind(frame)
	if err := h.route(from, kind, frame); err != nil {
		return fmt.Errorf("frame kind %d: %w", kind, err)
	}
	return nil
}

func (h *Head) route(from types.ProcessID, kind uint8, frame []byte) error {
	t := h.t
	switch kind {
	case wire.FrameAnnounce, wire.FramePayloadFetch, wire.FramePayloadResp:
		if !h.cfg.DigestOrdering {
			return errNoDigest
		}
	}
	switch kind {
	case wire.FrameRecoverReq:
		req, err := wire.UnmarshalRecoverReq(frame)
		if err == nil {
			t.RecoverReq(from, req)
		}
		return err
	case wire.FrameRecoverResp:
		resp, err := wire.UnmarshalRecoverResp(frame)
		if err == nil {
			t.RecoverResp(from, resp)
		}
		return err
	case wire.FrameSnapReq:
		req, err := wire.UnmarshalSnapReq(frame)
		if err == nil {
			t.SnapReq(from, req)
		}
		return err
	case wire.FrameSnapResp:
		resp, err := wire.UnmarshalSnapResp(frame)
		if err == nil {
			t.SnapResp(from, resp)
		}
		return err
	case wire.FramePayloadFetch:
		d, err := wire.UnmarshalPayloadFetch(frame)
		if err == nil {
			t.PayloadFetch(from, d)
		}
		return err
	case wire.FramePayloadResp:
		_, b, err := wire.UnmarshalPayloadRespFrame(frame)
		if err == nil {
			t.PayloadResp(b)
		}
		return err
	case wire.FrameAnnounce:
		return h.Announce(frame, nil)
	case wire.FrameRelay:
		hdr, inner, err := wire.UnmarshalRelayFrame(frame)
		if err != nil {
			return err
		}
		if h.cfg.DigestOrdering {
			// Under digest ordering only announces relay: every ordering
			// frame is descriptor-sized control.
			return h.Announce(inner, &hdr)
		}
		return h.h.Relayed(from, hdr, inner)
	}
	return wire.ErrBadFrame
}

// errNoDigest rejects a digest-ordering frame at a process running without
// it: the cluster runs mixed configurations.
var errNoDigest = errors.New("digest-ordering frame without digest ordering")

// Suspect and SetMembers keep the strategy's topology current; Ring reports
// the relaying strategy, Accumulating the admitted messages not yet sealed.
func (h *Head) Suspect(p types.ProcessID, suspected bool) { h.diss.Suspect(p, suspected) }
func (h *Head) SetMembers(members []types.ProcessID)      { h.diss.SetMembers(members) }
func (h *Head) Ring() bool                                { return h.diss.Strategy() == dissem.Ring }
func (h *Head) Accumulating() int                         { return h.acc.Len() }

// Fanout is what one Spread costs the origin in transmissions.
func (h *Head) Fanout() int {
	if h.Ring() && len(h.t.Hist.Current().Members) >= 3 {
		return 1
	}
	return h.t.Hist.Current().Others(h.env.Self())
}
