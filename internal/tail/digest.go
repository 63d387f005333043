package tail

import (
	"modab/internal/types"
	"modab/internal/wire"
)

// Announce ingests a disseminated payload batch (validated against its
// descriptor at the wire layer) and reports whether the descriptor still
// needs ordering: the shared head (its caller) then hands it to the host.
func (t *Tail) Announce(d wire.Descriptor, b wire.Batch) bool {
	if !t.Hist.Current().Contains(d.Origin) {
		// Nothing proposes a removed origin's descriptor past the boundary:
		// pooled, it would leak. A joiner racing its add re-announces.
		return false
	}
	id := types.MsgID{Sender: d.Origin, Seq: d.DSeq}
	if _, done := t.descDone[id]; done {
		return false // duplicate announce of a decided descriptor
	}
	t.Store.PutBatch(b)
	if t.rangeFullyDelivered(d) {
		t.markDone(d, t.next-1)
		t.Pool.Drop(id)
		return false
	}
	return true
}

// Offer pools a peer's unordered entries with the given mark, except those
// of origins outside the current view (a proposal must not carry what the
// activation boundary retired) and those with nothing left to order: an
// adelivered message, or a descriptor that decided or whose whole range
// is adelivered.
func (t *Tail) Offer(b wire.Batch, mark uint64) {
	cur := t.Hist.Current()
	for _, m := range b {
		if _, done := t.descDone[m.ID]; cur.Contains(m.ID.Sender) && !done && !t.settled(m, t.next-1) {
			t.Pool.Add(m, mark)
		}
	}
}

// settled reports whether pending entry m is obsolete: a message already
// adelivered or, under digest ordering (pending entries are descriptor
// pseudo-messages, whose IDs alias real ones at incarnation 0), a
// descriptor whose whole range is — then recorded as decided at instance at.
func (t *Tail) settled(m wire.AppMsg, at uint64) bool {
	if !t.cfg.DigestOrdering {
		return t.Delivered.Seen(m.ID)
	}
	d, err := wire.ParseDescriptor(m)
	if err != nil || !t.rangeFullyDelivered(d) {
		return false // a shape-bug fallback entry stays for re-proposal
	}
	t.markDone(d, at)
	return true
}

// markDone records d as decided at k; its payload's retention starts.
func (t *Tail) markDone(d wire.Descriptor, k uint64) {
	id := types.MsgID{Sender: d.Origin, Seq: d.DSeq}
	t.descDone[id] = k
	t.doneAt.Push(k, id)
	t.Store.MarkDelivered(d, k)
}

// rangeFullyDelivered reports whether every message of d's range was
// already adelivered — through an overlapping post-restart descriptor, or
// a decision learned resolved (recovery chunk, snapshot, served full
// decision) that never named d. A pending entry for it would never decide.
func (t *Tail) rangeFullyDelivered(d wire.Descriptor) bool {
	for i := uint32(0); i < d.Count; i++ {
		if !t.Delivered.Seen(types.MsgID{Sender: d.Origin, Seq: d.FirstSeq + uint64(i)}) {
			return false
		}
	}
	return true
}

// Resolve expands a decided descriptor batch into the payload messages it
// ordered (Commit re-sorts). A descriptor whose payload is not resident
// blocks the decision, unless its whole range was already adelivered: it
// then resolves to nothing. Non-descriptors pass through (the shape-bug
// fallback ordered them raw).
func (t *Tail) Resolve(b wire.Batch) (resolved wire.Batch, descs []wire.Descriptor, blocked bool) {
	resolved = make(wire.Batch, 0, len(b))
	for _, m := range b {
		d, err := wire.ParseDescriptor(m)
		if err != nil {
			resolved = append(resolved, m)
			continue
		}
		pb, ok := t.Store.Range(d)
		if !ok && !t.rangeFullyDelivered(d) {
			return nil, nil, true
		}
		resolved = append(resolved, pb...)
		descs = append(descs, d)
	}
	return resolved, descs, false
}

// Block starts (or keeps) the payload wait of the head decision. No fetch
// yet: the announce is usually still in flight (direct control frames
// outrun ring relays), so the first repair waits for the payload timer.
func (t *Tail) Block() {
	if t.blocked {
		return
	}
	t.blocked, t.blockedAt = true, t.env.Now()
	if t.cfg.ResendEvery > 0 {
		t.h.SetTimer(TimerPayload, t.cfg.ResendEvery)
	}
}

// Unblock closes an active payload wait, accounting the blocked time.
func (t *Tail) Unblock() {
	if !t.blocked {
		return
	}
	dur := t.env.Now() - t.blockedAt
	t.env.Counters().PayloadFetchNanos.Add(dur.Nanoseconds())
	t.cfg.Obs.PayloadFetchObserved(dur)
	t.blocked = false
	t.h.CancelTimer(TimerPayload)
}

// Blocked reports whether the head decision waits for a payload.
func (t *Tail) Blocked() bool { return t.blocked }

// FetchMissing is the payload-timer repair step, run by the host after a
// retry left head (an unresolved descriptor batch) blocked: ask one
// rotating live holder for its first payload neither resident nor fully
// delivered. One target per fire: a stall never becomes a fetch storm.
func (t *Tail) FetchMissing(head wire.Batch) {
	for _, m := range head {
		d, err := wire.ParseDescriptor(m)
		if err != nil {
			continue
		}
		if t.Store.Has(d) || t.rangeFullyDelivered(d) {
			continue
		}
		if to := t.Hist.Current().NextPeer(t.env.Self(), t.fetchFrom, t.Suspected); to != types.Nobody {
			t.fetchFrom = to
			c := t.env.Counters()
			c.PayloadFetches.Add(1)
			c.Retransmissions.Add(1)
			t.send(to, 32, func(w *wire.Writer) { wire.AppendPayloadFetchFrame(w, d) })
		}
		break
	}
	if t.cfg.ResendEvery > 0 {
		t.h.SetTimer(TimerPayload, t.cfg.ResendEvery)
	}
}

// PayloadFetch serves a repair request from the local store; a miss is
// ignored — the requester's timer rotates to the next holder. The response
// re-serves payload: dissemination cost.
func (t *Tail) PayloadFetch(from types.ProcessID, d wire.Descriptor) {
	b, ok := t.Store.Range(d)
	if !ok {
		return
	}
	c := t.env.Counters()
	c.Retransmissions.Add(1)
	c.PayloadBytesSent.Add(int64(b.PayloadBytes()))
	n := t.send(from, 32+b.WireSize(), func(w *wire.Writer) { wire.AppendPayloadRespFrame(w, d, b) })
	c.DisseminatedBytes.Add(int64(n))
}

// PayloadResp ingests a repair response (validated against its descriptor
// at the wire layer) and lets the host retry the blocked head.
func (t *Tail) PayloadResp(b wire.Batch) {
	t.Store.PutBatch(b)
	t.h.Advanced()
}
