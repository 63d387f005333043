package tail

import (
	"time"

	"modab/internal/dedup"
	"modab/internal/member"
	"modab/internal/recovery"
	"modab/internal/types"
	"modab/internal/wire"
)

// snapFetch is the chunk assembly of one snapshot transfer: the far-behind
// branch of the catch-up, entered when a responder holds a snapshot at or
// above our missing instance but truncated the instances themselves.
type snapFetch struct {
	active    bool
	from      types.ProcessID
	index     uint64
	total     int // envelope size, fixed by the first chunk of this index
	buf       []byte
	startedAt time.Duration
	lastLen   int // buffered bytes at the last recovery-timer fire
	stalls    int // consecutive recovery-timer fires without progress
}

// BeginRecovery enters the catch-up: announce the decided watermark to
// every peer, arm the stall timer. Until CaughtUp the engine must not
// propose: re-entering peer-pruned instances could decide them differently.
func (t *Tail) BeginRecovery() {
	t.Rec.Begin(t.env.Now(), recovery.Quorum(len(t.Hist.Current().Members)))
	t.recLastSeen = t.next
	t.sendRecoverReq(types.Nobody)
	if t.cfg.ResendEvery > 0 {
		t.h.SetTimer(TimerRecover, t.cfg.ResendEvery)
	}
}

func (t *Tail) sendRecoverReq(to types.ProcessID) {
	req := wire.RecoverReq{From: t.next}
	t.send(to, 16, func(w *wire.Writer) { wire.AppendRecoverReqFrame(w, req) })
}

func (t *Tail) sendSnapReq() {
	req := wire.SnapReq{Index: t.snap.index, Offset: uint64(len(t.snap.buf))}
	t.send(t.snap.from, 24, func(w *wire.Writer) { wire.AppendSnapReqFrame(w, req) })
}

// RecoverReq serves a restarted peer a chunk of contiguous decided
// instances plus this process's decided horizon and newest snapshot index
// (with nothing servable, still the horizon: another peer has the data).
func (t *Tail) RecoverReq(from types.ProcessID, req wire.RecoverReq) {
	resp := wire.RecoverResp{UpTo: t.next - 1}
	if s := t.cfg.Snapshots; s != nil && s.Latest != nil {
		if idx, ok := s.Latest(); ok {
			resp.SnapIndex = idx
		}
	}
	end := recovery.ChunkEnd(req.From, resp.UpTo)
	for k := req.From; end > 0 && k <= end; k++ {
		b, ok := t.h.Decision(k)
		if !ok {
			break // can't serve a contiguous run past this point
		}
		resp.Decisions = append(resp.Decisions, wire.DecidedInstance{K: k, Batch: b})
	}
	c := t.env.Counters()
	c.Retransmissions.Add(1)
	for _, d := range resp.Decisions {
		c.PayloadBytesSent.Add(int64(d.Batch.PayloadBytes()))
	}
	t.send(from, 32, func(w *wire.Writer) { wire.AppendRecoverRespFrame(w, resp) })
}

// RecoverResp applies a state-transfer chunk through the host's normal
// decision path, then completes the catch-up, pulls the next chunk from
// the same peer, or switches to snapshot transfer.
//
// Decisions are applied even after the catch-up finished: the finish can
// race a chunk still in flight (a lagging responder can complete the
// quorum, e.g. across a healed partition) that carries decisions whose
// dissemination this process missed for good while down — discarding it
// leaves an unhealable gap (found by chaos partition+crash+restart runs).
func (t *Tail) RecoverResp(from types.ProcessID, resp wire.RecoverResp) {
	before := t.next
	for _, d := range resp.Decisions {
		if d.K < t.next {
			continue // already applied (replay, cascade, racing chunk)
		}
		// Served decisions hold resolved batches in both ordering modes. One
		// ahead of Next (no well-formed chunk has any) the host buffers or drops.
		t.env.Counters().RecoveryFetchedMsgs.Add(int64(len(d.Batch)))
		t.h.Decided(d.K, d.Batch)
	}
	if !t.Rec.Active() {
		return
	}
	t.Rec.Observe(from, resp.UpTo)
	switch {
	case t.maybeFinish():
	case t.next > before && t.next <= t.Rec.Target():
		// Pull on only from a peer whose response advanced us: the announce
		// fans out, and every responder would ship the same backlog.
		t.sendRecoverReq(from)
	case t.next == before && resp.SnapIndex >= t.next && t.cfg.Snapshots != nil && !t.snap.active:
		// The responder cannot serve our missing instance but holds a
		// snapshot covering it: install that, then catch up above it.
		t.snap = snapFetch{active: true, from: from, index: resp.SnapIndex, startedAt: t.env.Now()}
		t.sendSnapReq()
	}
}

// maybeFinish ends the catch-up once a quorum reported and Next passed it.
func (t *Tail) maybeFinish() bool {
	dur, done := t.Rec.MaybeFinish(t.next, t.env.Now())
	if !done {
		return false
	}
	t.env.Counters().RecoveryNanos.Add(dur.Nanoseconds())
	t.cfg.Obs.RecoveryObserved(dur)
	t.h.CancelTimer(TimerRecover)
	t.snap = snapFetch{}
	t.h.CaughtUp()
	return true
}

// SnapReq serves one chunk of the local latest snapshot. A request for a
// snapshot this process no longer has (it moved on) is answered with the
// newest one from offset 0; the requester restarts its assembly.
func (t *Tail) SnapReq(from types.ProcessID, req wire.SnapReq) {
	s := t.cfg.Snapshots
	if s == nil || s.Latest == nil || s.Read == nil {
		return
	}
	resp := wire.SnapResp{UpTo: t.next - 1}
	if idx, ok := s.Latest(); ok {
		off := req.Offset
		if idx != req.Index {
			off = 0
		}
		if data, total, ok := s.Read(idx, int(off), wire.SnapChunk); ok {
			resp.Index, resp.Total, resp.Offset, resp.Data = idx, uint64(total), off, data
		}
	}
	t.env.Counters().Retransmissions.Add(1)
	t.send(from, 64+len(resp.Data), func(w *wire.Writer) { wire.AppendSnapRespFrame(w, resp) })
}

// SnapResp assembles snapshot chunks, installs the completed envelope and
// resumes per-instance catch-up above it. The recovery timer restarts any
// abandoned fetch.
func (t *Tail) SnapResp(from types.ProcessID, resp wire.SnapResp) {
	if !t.snap.active || from != t.snap.from {
		return
	}
	if resp.Total == 0 || resp.Index < t.next {
		t.snap = snapFetch{} // responder lost its snapshot, or we passed it
		return
	}
	if resp.Index != t.snap.index {
		// The responder rotated to a newer snapshot: restart the assembly.
		t.snap.index, t.snap.total, t.snap.buf = resp.Index, 0, t.snap.buf[:0]
	}
	if int(resp.Offset) != len(t.snap.buf) {
		t.sendSnapReq() // duplicate or reordered chunk: re-request in place
		return
	}
	if t.snap.total == 0 {
		t.snap.total = int(resp.Total)
	}
	if resp.Total != uint64(t.snap.total) || len(t.snap.buf)+len(resp.Data) > t.snap.total {
		// The assembly is bounded by the size this index's first chunk
		// announced: a responder changing Total or over-sending is dropped.
		t.snap = snapFetch{}
		return
	}
	t.snap.buf = append(t.snap.buf, resp.Data...)
	t.Rec.Observe(from, resp.UpTo)
	if len(t.snap.buf) < t.snap.total {
		t.sendSnapReq()
		return
	}
	env, err := wire.UnmarshalSnapshotEnvelope(t.snap.buf)
	took := t.env.Now() - t.snap.startedAt
	t.snap = snapFetch{}
	if err != nil || env.Index < t.next || t.installSnapshot(env) != nil {
		return
	}
	c := t.env.Counters()
	c.SnapshotInstalls.Add(1)
	c.SnapshotInstallNanos.Add(took.Nanoseconds())
	t.cfg.Obs.InstallObserved(took)
	if !t.maybeFinish() && t.Rec.Active() {
		t.sendRecoverReq(from)
	}
}

// installSnapshot adopts a fetched snapshot: the application side first
// (persist + state machine restore through the driver hook; a failed
// install leaves the tail unchanged), then merged dedup state, the jumped
// watermark, the snapshot's views this process lacks (handed to the host
// and to OnConfig with a zero op, removed origins retired) and, for what the snapshot ordered, released
// own flow slots and retired pending entries (a partly covered descriptor
// stays pending).
func (t *Tail) installSnapshot(env wire.SnapshotEnvelope) error {
	dm, err := dedup.UnmarshalMap(env.Dedup)
	if err != nil {
		return err
	}
	if install := t.cfg.Snapshots.Install; install != nil {
		if err := install(env); err != nil {
			return err
		}
	}
	t.Delivered.Merge(dm)
	t.next = env.Index + 1
	for _, v := range env.Views {
		prev := t.Hist.Current()
		if !t.Hist.Adopt(v) {
			continue
		}
		t.reconfigureLocal(v)
		if t.cfg.OnConfig != nil {
			t.cfg.OnConfig(v, member.Op{}) // the op is not in the snapshot
		}
		for _, origin := range prev.Members {
			// Retire a removed origin at its boundary, as Commit would.
			switch {
			case v.Contains(origin):
			case v.Activation <= t.next:
				t.retireOrigin(origin)
			default:
				t.retires[v.Activation] = append(t.retires[v.Activation], origin)
			}
		}
	}
	t.Flow.ReleaseDelivered(t.Delivered.Seen)
	t.Pool.Retire(func(m wire.AppMsg) bool { return t.settled(m, env.Index) })
	// The instances below the new watermark will never decide here: what
	// our proposals for them carried is proposable again.
	t.Pool.ReleaseBelow(t.next)
	// A head blocked below the new watermark is obsolete; one above it
	// re-blocks from scratch when the host retries it.
	if t.blocked {
		t.blocked = false
		t.h.CancelTimer(TimerPayload)
	}
	t.h.Installed()
	return nil
}

// RecoverTimer is the state-transfer stall timer. It re-announces only if
// nothing moved since the last fire (lost request or response, dead serving
// peer); a healthy chunk chain just re-arms. A stalled snapshot fetch first
// retries its chunk, then abandons the peer and re-announces.
func (t *Tail) RecoverTimer() {
	if !t.Rec.Active() {
		return
	}
	switch {
	case t.snap.active && len(t.snap.buf) != t.snap.lastLen:
		t.snap.stalls, t.snap.lastLen = 0, len(t.snap.buf)
	case t.snap.active && t.snap.stalls == 0:
		t.snap.stalls++
		t.sendSnapReq()
	case t.snap.active:
		t.snap = snapFetch{}
		t.sendRecoverReq(types.Nobody)
	case t.next == t.recLastSeen:
		t.sendRecoverReq(types.Nobody)
	}
	t.recLastSeen = t.next
	if t.cfg.ResendEvery > 0 {
		t.h.SetTimer(TimerRecover, t.cfg.ResendEvery)
	}
}
