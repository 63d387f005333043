// Package abcast implements the atomic broadcast microprotocol of the
// modular stack: the Chandra–Toueg reduction of atomic broadcast to
// consensus (paper §3.3).
//
// An abcast message is first diffused to every process over the
// quasi-reliable channels (the paper's optimization over rbcast
// diffusion), collected into the pending set (the tail's pool.Pool, shared
// with the monolithic stack), and then ordered by a
// sequence of consensus instances: each instance decides a batch of
// pending messages, which every process adelivers in a deterministic
// order. What precedes ordering — admission through flow control,
// sender-side batching (a submitted message then waits in an accumulator
// and is diffused with its batch in a single frame, amortizing the
// per-message layer headers and handler dispatches the paper measures) and
// the dissemination strategy — is the shared head (internal/head); this
// layer starts at a sealed entry.
// With pipelining enabled (engine.Config.PipelineDepth > 1) the layer
// keeps up to W consensus instances in flight concurrently, partitioning
// the pending set across them, instead of leaving the wire idle while
// each decision round-trips; depth 1 reproduces the paper's strictly
// sequential instances bit-for-bit.
// Consensus instances are black boxes here — this layer cannot see
// the coordinator's identity, cannot piggyback payloads on consensus
// messages, and cannot merge a decision with the next proposal. Those are
// exactly the optimizations reserved to the monolithic stack (§4).
//
// Correctness outside good runs: if a sender crashes mid-diffusion, the
// survivors holding the message re-diffuse it after observing consensus
// instances that failed to order it (driven by the idle-kick timer and by
// decision processing), so the coordinator eventually proposes it. This
// implements the guarantee the paper obtains with its "start a consensus
// after t seconds of silence" rule.
package abcast

import (
	"fmt"
	"time"

	"modab/internal/engine"
	"modab/internal/head"
	"modab/internal/member"
	"modab/internal/obs"
	"modab/internal/pool"
	"modab/internal/stack"
	"modab/internal/tail"
	"modab/internal/types"
	"modab/internal/wire"
)

// Layer-local timers.
const (
	// timerKick is the idle/retry timer.
	timerKick engine.TimerID = 1
	// timerFlush is the shared head's batching age trigger.
	timerFlush engine.TimerID = 2
	// timerRecover drives state-transfer retries after a crash-recovery
	// restart.
	timerRecover engine.TimerID = 3
	// timerPayload drives decided-but-not-resident payload refetches under
	// digest ordering: armed when the head decision blocks on a missing
	// payload, it fetches from one rotating live holder per fire (the same
	// deferred single-target pattern as the ring decision refetch).
	timerPayload engine.TimerID = 4
)

// rediffuseGrace is how many decided instances a pending message may miss
// before the holder re-diffuses it. It must sit comfortably above the
// flow-control backlog divided by M (the natural number of instances a
// message waits under saturation, 2-3) so the recovery path never fires in
// good runs. With pipelining the grace scales by the window W: a W-deep
// pipeline both widens the flow-control backlog W× and keeps W instances
// worth of messages legitimately waiting, so the natural instance wait
// grows by the same factor.
const rediffuseGrace = 8

// Layer is the atomic broadcast microprotocol.
type Layer struct {
	ctx *stack.Context
	cfg engine.Config

	self types.ProcessID
	// t is the delivery tail (internal/tail): everything downstream of a
	// decision — commit, membership, state transfer, payload residency —
	// shared with the monolithic stack. It owns the decided watermark
	// (t.Next), the flow window, the view history, the delivered set and
	// the pending set (t.Pool, whose entry mark is the staleness epoch: the
	// next-to-decide instance when the message was last diffused); this
	// layer keeps only ordering state.
	t *tail.Tail
	// hd is the shared head (internal/head): everything upstream of ordering
	// — admission, sender-side batching, announce and relay through the
	// dissemination strategy — shared with the monolithic stack. Every
	// diffuse frame goes out through hd.Spread.
	hd    *head.Head
	frame wire.Batch // every diffuse frame decodes into it: ingestDiffused keeps none
	// draining guards drainDecisions against re-entry: applying a config
	// op mid-delivery synchronously pokes the consensus layer, which may
	// bounce an event back into this layer.
	draining bool
	// inflight holds every instance this process proposed and has not yet
	// processed the decision of (the pool assigns what each carries). Its
	// size is bounded by pipe: that bound IS the consensus pipeline.
	inflight map[uint64]struct{}
	// pipe is the effective pipeline window W (>= 1); 1 reproduces the
	// paper's strictly sequential instances bit-for-bit.
	pipe int
	// decisionsBuf holds out-of-order decisions until their turn. With
	// pipelining, decisions for up to W instances legitimately race each
	// other here (the paper's sequential stack only ever buffered
	// reordered rbcast deliveries). Under digest ordering a buffered
	// decision is either a descriptor batch straight from consensus
	// (resolved == false) or a payload batch from state transfer
	// (resolved == true) — the flag is explicit because a real
	// application message with a 16-byte body would alias a descriptor.
	decisionsBuf map[uint64]decision
	// lastProgress is when the last decision was processed or consensus
	// started (guards the kick timer against firing during healthy load).
	lastProgress time.Duration
}

// decision is one buffered consensus outcome; resolved reports whether
// Batch already carries real application messages (state transfer) rather
// than descriptors still needing payload resolution.
type decision struct {
	batch    wire.Batch
	resolved bool
}

var _ stack.Layer = (*Layer)(nil)

// New returns an atomic broadcast layer with the given configuration.
func New(cfg engine.Config) *Layer {
	return &Layer{cfg: cfg}
}

// Tag implements stack.Layer.
func (l *Layer) Tag() stack.Tag { return stack.TagABcast }

// Init implements stack.Layer.
func (l *Layer) Init(ctx *stack.Context) {
	l.ctx = ctx
	l.self = ctx.Env().Self()
	l.t = tail.New(ctx.Env(), &l.cfg, (*host)(l))
	l.hd = head.New(ctx.Env(), &l.cfg, l.t, (*host)(l))
	l.decisionsBuf = make(map[uint64]decision)
	l.inflight = make(map[uint64]struct{})
	l.pipe = l.cfg.EffectivePipeline()
	// The replayed unordered own backlog re-enters the pending set (its
	// flow-control slots are already re-occupied by the tail).
	for _, m := range l.hd.Backlog {
		l.t.Pool.Add(m, l.t.Next())
	}
}

// Start implements stack.Layer. A recovered layer re-diffuses its
// unordered own messages (already logged — no re-persist), announces
// itself, and catches up on missed decisions before proposing anything.
func (l *Layer) Start() {
	// Propagate any non-boot views (joiner seed, restored views) to the
	// peer layers now that every layer is initialized. The modular driver
	// additionally seeds the consensus layer directly for joiners; the
	// re-emission is idempotent there.
	l.t.ReplayViews()
	if st := l.cfg.Recovered; st != nil {
		c := l.ctx.Env().Counters()
		c.Recoveries.Add(1)
		c.RecoveryReplayedMsgs.Add(st.ReplayedMsgs)
		if len(st.Own) > 0 {
			if l.cfg.DigestOrdering {
				// Re-announce the regrouped backlog: payloads travel once
				// more through the dissemination seam.
				l.hd.Reannounce(l.hd.Backlog)
			} else {
				l.diffuseBatch(st.Own)
			}
		}
		if l.others() > 0 {
			l.t.BeginRecovery()
		} else {
			l.maybeStartConsensus()
		}
	}
	l.armKick()
}

// Pending returns the number of known, unordered messages, including any
// still waiting in the sender-side batch accumulator (diagnostics).
func (l *Layer) Pending() int { return l.t.Pool.Len() + l.hd.Accumulating() }

// Abcast submits one application payload through the shared head, which
// admits it and hands back what it seals (see host.Sealed).
func (l *Layer) Abcast(body []byte) (types.MsgID, error) {
	return l.admitted(l.hd.Abcast(body))
}

// admitted arms the idle kick behind a successful admission: the flow slot
// it holds is something to watch over, sealed or not.
func (l *Layer) admitted(id types.MsgID, err error) (types.MsgID, error) {
	if err == nil {
		l.armKick()
	}
	return id, err
}

// diffuseOne spreads a single-message diffuse frame through a pooled
// writer (the drivers copy the payload before the writer is returned to
// the pool); diffuseBatch spreads a whole batch as one frame.
func (l *Layer) diffuseOne(m wire.AppMsg) {
	w := wire.GetWriter(1 + m.WireSize())
	wire.AppendMsgFrame(w, m)
	l.hd.Spread(w.Bytes(), len(m.Body))
	wire.PutWriter(w)
}

func (l *Layer) diffuseBatch(b wire.Batch) {
	w := wire.GetWriter(1 + b.WireSize())
	wire.AppendBatchFrame(w, b)
	l.hd.Spread(w.Bytes(), b.PayloadBytes())
	wire.PutWriter(w)
}

// others returns the broadcast fan-out: current-view members but self.
func (l *Layer) others() int { return l.t.Hist.Current().Others(l.self) }

// Receive implements stack.Layer: a diffused message or batch from a peer
// (both decode to a batch, so one path handles both); every other frame —
// state transfer, payload repair, announce, relay — goes to the shared
// router (head.Receive).
func (l *Layer) Receive(from types.ProcessID, data []byte) error {
	if k := wire.FrameKind(data); k != wire.FrameAppMsg && k != wire.FrameBatch {
		if err := l.hd.Receive(from, data); err != nil {
			return fmt.Errorf("abcast: from %s: %w", from, err)
		}
		return nil
	}
	if l.cfg.DigestOrdering {
		// A plain payload diffuse under digest ordering means the cluster
		// runs mixed configurations; reject it before it poisons the
		// pending set with payload-mode entries.
		return fmt.Errorf("abcast: plain diffuse from %s under digest ordering", from)
	}
	b, err := wire.AppendFrame(l.frame, data)
	if err != nil {
		return fmt.Errorf("abcast: bad diffuse from %s: %w", from, err)
	}
	l.frame = b
	l.ingestDiffused(b)
	return nil
}

// progress retries the head decision, proposes and re-arms the idle kick:
// the common tail of every event that may have unblocked ordering.
func (l *Layer) progress() {
	l.drainDecisions()
	l.maybeStartConsensus()
	l.armKick()
}

// ingestDiffused adds a received diffuse batch to the pending set and
// (re)starts consensus — the shared tail of the direct and relayed
// receive paths (see host.Relayed).
func (l *Layer) ingestDiffused(b wire.Batch) {
	l.t.Offer(b, l.t.Next())
	l.armKick()
	l.maybeStartConsensus()
}

// maybeStartConsensus opens consensus instances until the pipeline window
// is full or the proposable backlog runs out: each new proposal takes the
// pending messages no other in-flight proposal of ours already carries
// (pool.Take: current members' messages only, so from the moment a remove
// op is applied no proposal of ours carries the removed origin again,
// which bounds its in-flight references to instances below the activation
// boundary, where its state is then retired). With pipe == 1 this is
// exactly the paper's sequential rule — one proposal at a time, for the
// next undecided instance, of the whole pending set.
func (l *Layer) maybeStartConsensus() {
	if l.t.Rec.Active() {
		return // never propose while catching up on missed decisions
	}
	for len(l.inflight) < l.pipe {
		// The lowest instance that is neither decided locally, nor already
		// carrying one of our proposals, nor decided-but-buffered: the first
		// one this proposal can still win.
		k := l.t.Next()
		for {
			_, ours := l.inflight[k]
			_, buffered := l.decisionsBuf[k]
			if !ours && !buffered {
				break
			}
			k++
		}
		batch := l.t.Pool.Take(k, l.t.Hist.Current(), l.cfg.MaxBatch)
		if len(batch) == 0 {
			return
		}
		l.t.Pool.Assign(batch, k)
		l.inflight[k] = struct{}{}
		l.lastProgress = l.ctx.Env().Now()
		l.ctx.Env().Counters().ObserveDepth(len(l.inflight))
		if o := l.cfg.Obs; o != nil {
			for _, m := range batch {
				o.Stage(m.ID, obs.StagePropose, l.lastProgress)
			}
		}
		l.ctx.Emit(stack.TagConsensus, stack.Event{
			Kind:     stack.EvProposeReq,
			Instance: k,
			Batch:    batch,
		})
	}
}

// Event implements stack.Layer: consensus decisions arrive here, possibly
// out of instance order.
func (l *Layer) Event(ev stack.Event) {
	if ev.Kind != stack.EvDecide {
		return
	}
	l.enqueueDecision(ev.Instance, ev.Batch, false)
}

// enqueueDecision buffers one decision (from consensus or state transfer)
// and drains the in-order prefix. A resolved entry is never downgraded by
// a late unresolved duplicate.
func (l *Layer) enqueueDecision(k uint64, b wire.Batch, resolved bool) {
	if k < l.t.Next() {
		return // duplicate decision for an already-processed instance
	}
	if old, ok := l.decisionsBuf[k]; !ok || !old.resolved {
		l.decisionsBuf[k] = decision{batch: b, resolved: resolved}
	}
	l.progress()
}

// drainDecisions processes buffered decisions in instance order. Under
// digest ordering an unresolved head is first expanded through the payload
// store; if any descriptor's payload is not yet resident the drain stops
// without advancing — adelivery of a decided digest blocks until its
// payload is resident — and the payload-wait timer takes over the repair.
func (l *Layer) drainDecisions() {
	if l.draining {
		return
	}
	l.draining = true
	defer func() { l.draining = false }()
	for {
		k := l.t.Next()
		dec, ok := l.decisionsBuf[k]
		if !ok {
			return
		}
		batch, descs := dec.batch, []wire.Descriptor(nil)
		if l.cfg.DigestOrdering && !dec.resolved {
			var blocked bool
			if batch, descs, blocked = l.t.Resolve(dec.batch); blocked {
				l.t.Block()
				return
			}
			l.t.Unblock()
		}
		delete(l.decisionsBuf, k)
		l.processDecision(k, batch, descs)
		l.t.Advance(k)
	}
}

// SubmitConfig implements engine.ConfigSubmitter: the op is submitted
// through the ordinary abcast path — diffused, proposed and decided exactly
// like an application message.
func (l *Layer) SubmitConfig(op member.Op) (types.MsgID, error) {
	return l.admitted(l.hd.SubmitConfig(op))
}

// CurrentView implements engine.ConfigSubmitter.
func (l *Layer) CurrentView() member.View { return l.t.Hist.Current() }

// Views returns the full decided view sequence (checker support: the
// chaos harness asserts all correct processes agree on the
// epoch → activation map).
func (l *Layer) Views() []member.View { return l.t.Hist.Views() }

// processDecision handles decided instance k: the tail commits the batch
// (the ordered entries leave the pending set, then log, adeliver in
// deterministic order, release flow control — see tail.Commit; under digest
// ordering batch is the RESOLVED payload expansion and descs the
// descriptors it came from), our in-flight proposal for k closes, and
// stale survivors are re-diffused.
func (l *Layer) processDecision(k uint64, batch wire.Batch, descs []wire.Descriptor) {
	l.lastProgress = l.ctx.Env().Now()
	l.t.Commit(k, batch, descs)
	// Close our in-flight proposal for k: messages of ours this instance
	// did not order (another proposal won) become proposable again for a
	// later instance.
	delete(l.inflight, k)
	l.t.Pool.ReleaseBelow(k + 1)
	// Survivor re-diffusion: a pending message that predates several
	// decided instances was missed by the coordinator — the only causes
	// are a sender crash mid-diffusion or extreme reordering. Re-diffuse
	// so the next proposal includes it. Suppressed during state-transfer
	// catch-up: the fetched (old) instances could never contain the
	// replayed backlog, so the staleness rule would re-broadcast it every
	// few applied chunks for nothing — CaughtUp restarts the epochs
	// instead.
	if !l.t.Rec.Active() {
		grace := rediffuseGrace * uint64(l.pipe)
		l.rediffuse(func(e *pool.Entry) bool { return k >= e.Mark && k-e.Mark >= grace }, k+1)
	}
}

// rediffuse re-spreads each pending entry stale selects, restamping its
// epoch to mark: a plain diffuse in payload mode; under digest ordering the
// entry is a descriptor pseudo-message, re-announced with its payload if
// this process still holds it.
func (l *Layer) rediffuse(stale func(e *pool.Entry) bool, mark uint64) {
	c := l.ctx.Env().Counters()
	l.t.Pool.Each(func(e *pool.Entry) {
		if !stale(e) {
			return
		}
		e.Mark = mark
		if !l.cfg.DigestOrdering {
			l.diffuseOne(e.Msg)
		} else if l.hd.Reannounce(wire.Batch{e.Msg}) != 1 {
			return
		}
		c.Retransmissions.Add(int64(l.hd.Fanout()))
	})
}

// Timer implements stack.Layer: the batching age trigger and the idle
// kick. timerKick retries the proposal when nothing has progressed for the
// configured period (and lets processDecision's staleness rule
// re-diffuse).
func (l *Layer) Timer(id engine.TimerID) {
	if id == timerFlush {
		if l.hd.Flush() {
			l.armKick()
		}
		return
	}
	if id == timerRecover {
		l.t.RecoverTimer()
		return
	}
	if id == timerPayload {
		if !l.t.Blocked() {
			return
		}
		// Payloads may have arrived without triggering a drain (e.g. via a
		// racing snapshot install); retry before fetching.
		l.drainDecisions()
		if !l.t.Blocked() {
			l.maybeStartConsensus()
			l.armKick()
			return
		}
		l.t.FetchMissing(l.decisionsBuf[l.t.Next()].batch)
		return
	}
	if id != timerKick || l.cfg.IdleKick <= 0 {
		return
	}
	now := l.ctx.Env().Now()
	stalled := now-l.lastProgress >= l.cfg.IdleKick
	if stalled && !l.t.Rec.Active() && l.others() > 0 && l.staleGap() {
		// Backstop for missed decision dissemination: a buffered decision
		// far beyond the deliverable watermark proves the cluster decided
		// instances whose announcements this process permanently missed
		// (e.g. the catch-up finish raced the deciding traffic). Re-enter
		// the state-transfer protocol to pull the gap from a peer's log.
		l.t.BeginRecovery()
		l.armKick()
		return
	}
	if l.t.Pool.Len() > 0 && stalled {
		// Stalled: re-diffuse everything still pending so the round-1
		// coordinator certainly learns of it, then (re)propose.
		l.rediffuse(func(*pool.Entry) bool { return true }, l.t.Next()+1)
		l.maybeStartConsensus()
	}
	if l.t.Pool.Len() > 0 {
		l.armKick()
	}
}

// armKick (re-)arms the idle timer when there is anything to watch over.
func (l *Layer) armKick() {
	if l.cfg.IdleKick <= 0 {
		return
	}
	if l.t.Pool.Len() > 0 || l.t.Flow.InFlight() > 0 || len(l.decisionsBuf) > 0 {
		l.ctx.SetTimer(timerKick, l.cfg.IdleKick)
	}
}

// staleGap reports whether a buffered out-of-order decision sits so far
// beyond the deliverable watermark that it cannot be explained by
// in-flight racing (the same staleness bound the re-diffusion rule uses):
// the instances below it were decided by the cluster, and their
// announcements are not coming back.
func (l *Layer) staleGap() bool {
	bound := l.t.Next() + rediffuseGrace*uint64(l.pipe)
	for k := range l.decisionsBuf {
		if k >= bound {
			return true
		}
	}
	return false
}

// Suspect implements stack.Layer. The reduction itself ignores the
// failure detector (consensus consumes it), but the dissemination
// strategy tracks it: a ring relayer skips a suspected successor, which
// is how a cut ring repairs itself.
func (l *Layer) Suspect(p types.ProcessID, suspected bool) {
	l.hd.Suspect(p, suspected)
	l.t.Suspected[p] = suspected // feeds the payload-refetch target rotation
}

// host is the Layer seen through head.Host (and so tail.Host): the tail and
// head frames go out tagged through the stack context, a payload-mode relay
// is a diffuse frame, the timers are layer-local, sealed and announced
// entries enter the pending set, and the tail hooks into the decision
// reorder buffer. A separate named type keeps these methods off the
// Layer's public surface.
type host Layer

var _ head.Host = (*host)(nil)

// Sealed moves one sealed own batch into the ordering path: every entry
// becomes pending, payload mode diffuses the messages as one frame (under
// digest ordering the head already announced them; a raw shape-bug
// fallback rides the proposal), and consensus is (re)started.
func (h *host) Sealed(entries wire.Batch) {
	l := (*Layer)(h)
	for _, m := range entries {
		l.t.Pool.Add(m, l.t.Next())
	}
	if !l.cfg.DigestOrdering {
		if l.cfg.Batch.Enabled() {
			l.diffuseBatch(entries)
		} else {
			l.diffuseOne(entries[0]) // the paper's single-message frame
		}
	}
	l.maybeStartConsensus()
}

// Announced makes a peer's announced descriptor pending and unblocks a head
// decision waiting on its payload.
func (h *host) Announced(pm wire.AppMsg) {
	h.t.Pool.Add(pm, h.t.Next())
	(*Layer)(h).progress()
}

// Relayed ingests a payload-mode ring relay — a diffuse frame — unless the
// head drops it as a duplicate; the head forwards it first.
func (h *host) Relayed(from types.ProcessID, hdr wire.RelayHeader, inner []byte) error {
	b, err := wire.UnmarshalFrame(inner)
	if err != nil {
		return err
	}
	if h.hd.Accept(hdr, inner, b.PayloadBytes(), false) {
		(*Layer)(h).ingestDiffused(b)
	}
	return nil
}

// Send puts a tail or head frame on the wire under the abcast layer's tag.
func (h *host) Send(to types.ProcessID, frame []byte) {
	if to == types.Nobody {
		h.ctx.NetSendMembers(h.t.Hist.Current().Members, frame)
		return
	}
	h.ctx.NetSend(to, frame)
}

// layerTimer maps a tail or head timer into the layer-local namespace.
func layerTimer(id tail.Timer) engine.TimerID {
	switch id {
	case tail.TimerRecover:
		return timerRecover
	case tail.TimerFlush:
		return timerFlush
	}
	return timerPayload
}

func (h *host) SetTimer(id tail.Timer, d time.Duration) { h.ctx.SetTimer(layerTimer(id), d) }

func (h *host) CancelTimer(id tail.Timer) { h.ctx.CancelTimer(layerTimer(id)) }

// Decision: the layer itself retains no decided batches (decisions live
// behind the consensus black box), so only the write-ahead log can serve.
func (h *host) Decision(k uint64) (wire.Batch, bool) {
	if h.cfg.Persist == nil {
		return nil, false
	}
	return h.cfg.Persist.ReadDecision(k)
}

func (h *host) Decided(k uint64, b wire.Batch) { (*Layer)(h).enqueueDecision(k, b, true) }

func (h *host) Advanced() { (*Layer)(h).progress() }

// Installed drops the buffered decisions and our proposals below the
// installed watermark (the tail released what they carried): left open, a
// proposal for a covered instance would hold its pipeline slot for good —
// at W = 1, every later proposal.
func (h *host) Installed() {
	for k := range h.decisionsBuf {
		if k < h.t.Next() {
			delete(h.decisionsBuf, k)
		}
	}
	for k := range h.inflight {
		if k < h.t.Next() {
			delete(h.inflight, k)
		}
	}
	h.lastProgress = h.ctx.Env().Now()
	if h.cfg.DigestOrdering {
		// The blocked head was either pruned by the watermark jump or is
		// still blocked: re-drain so it re-arms the refetch from scratch.
		(*Layer)(h).drainDecisions()
	}
}

// CaughtUp resumes normal operation after catch-up: pending-set staleness
// restarts from here (the fetched instances could not have ordered what
// only this process holds), and proposing is allowed again.
func (h *host) CaughtUp() {
	l := (*Layer)(h)
	l.t.Pool.Each(func(e *pool.Entry) { e.Mark = l.t.Next() })
	if l.cfg.DigestOrdering {
		l.drainDecisions()
	}
	l.maybeStartConsensus()
	l.armKick()
}

// ViewChanged propagates a view to the consensus and rbcast layers and
// points the dissemination topology at it.
func (h *host) ViewChanged(v member.View) {
	ev := stack.Event{Kind: stack.EvConfig, Instance: v.Activation, Members: v.Members}
	h.ctx.Emit(stack.TagConsensus, ev)
	h.ctx.Emit(stack.TagRBcast, ev)
	h.hd.SetMembers(v.Members)
}
