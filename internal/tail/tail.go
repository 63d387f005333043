// Package tail is the delivery tail both atomic broadcast stacks share:
// everything downstream of "consensus instance k is decided".
//
// The paper builds the same atomic broadcast twice so that the stacks
// differ only in how ordering is composed (§3.3 reduction to black-box
// consensus vs. the §4 merged protocol). What follows a decision is the
// same job in both, so it lives here once: Commit and dynamic membership
// in this file; crash-recovery state transfer, per instance and by
// snapshot, in transfer.go (protocol: internal/recovery); digest ordering's
// descriptor resolution, announce ingest and payload repair in digest.go.
// docs/ARCHITECTURE.md ("Delivery tail") has the rationale.
//
// A Tail is a plain single-threaded struct owned by one engine and driven
// from its event loop — not a stack.Layer, so it adds no dispatch. It uses
// recovery.Catchup, payload.Store, pool.Pool, member.History, dedup.Map and
// flow.Controller directly and exposes them as fields for the engine's
// ordering code. What legitimately differs per stack sits behind Host.
package tail

import (
	"time"

	"modab/internal/dedup"
	"modab/internal/engine"
	"modab/internal/flow"
	"modab/internal/member"
	"modab/internal/obs"
	"modab/internal/payload"
	"modab/internal/pool"
	"modab/internal/recovery"
	"modab/internal/retire"
	"modab/internal/trace"
	"modab/internal/types"
	"modab/internal/wire"
)

// Timer names one of the timers the tail and the shared head
// (internal/head) keep in the host's namespace: TimerRecover fires
// RecoverTimer; on TimerPayload the host retries its blocked head and, if
// still blocked, calls FetchMissing; TimerFlush is the head's batching age
// trigger (head.Flush).
type Timer uint8

const (
	TimerRecover Timer = iota + 1
	TimerPayload
	TimerFlush
)

// Host is what a Tail needs from the engine that owns it: one way to put a
// frame on the wire, the timer namespace, and the points where the tail
// hands decisions and events to ordering. The tail and the shared head
// encode their own wire frames (internal/wire), so both stacks carry the
// same bytes under their envelope; what they receive comes back through
// head.Receive.
type Host interface {
	// Send transmits one tail or head frame to one process, or to every
	// other current member when to is types.Nobody. The frame is pooled:
	// the host transmits or copies it before returning.
	Send(to types.ProcessID, frame []byte)
	SetTimer(id Timer, d time.Duration)
	CancelTimer(id Timer)

	// Decision returns instance k's decided batch from wherever the stack
	// retains decisions (instance memory, the write-ahead log).
	Decision(k uint64) (wire.Batch, bool)
	// Decided hands a state-transfer decision, already resolved to payload
	// messages, to the host's in-order decision path.
	Decided(k uint64, b wire.Batch)
	// Advanced: payloads became resident; retry the blocked head, propose.
	Advanced()
	// Installed: a snapshot install jumped Next; drop ordering state below
	// (the tail has released the pool's assignments below Next).
	Installed()
	// CaughtUp: the state-transfer catch-up ended; proposing is allowed.
	CaughtUp()
	// ViewChanged: adopt a membership view (a config op applied mid-Commit,
	// or a non-boot view replayed at start by ReplayViews).
	ViewChanged(v member.View)
}

// Tail is one engine's delivery tail; its ordering code uses the exported
// components directly.
type Tail struct {
	env engine.Env
	cfg *engine.Config // the owning engine's configuration, shared
	h   Host

	Flow *flow.Controller // the engine admits, Commit releases
	// Hist is the decided membership history: every fan-out, quorum and
	// coordinator decision consults a view from it, never the boot n.
	Hist      *member.History
	Delivered dedup.Map      // adelivered messages, per sender
	Store     *payload.Store // resident payloads (digest ordering only)
	// Pool is the unordered messages: the modular pending set, the
	// monolithic pool. The engine proposes from it; the tail retires what
	// a decision, an install or a remove made obsolete.
	Pool pool.Pool
	Rec  recovery.Catchup // while active the engine must not propose
	// Suspected is the failure detector's output, written by the engine: it
	// steers refetch targets here, round changes in the monolithic engine.
	Suspected map[types.ProcessID]bool

	next uint64 // lowest instance not yet processed (see Advance)
	// retires maps a remove boundary (the removing view's activation) to the
	// origins removed there; no undecided instance can reference them once
	// the last old-view instance commits, which consumes the entry.
	retires     map[uint64][]types.ProcessID
	recLastSeen uint64 // next at the last recovery-timer fire
	snap        snapFetch

	// Digest ordering: descDone maps decided descriptors (pseudo ID) to
	// their instance until the horizon prunes them (doneAt queues them in
	// instance order for that) — pseudo IDs alias real message IDs at
	// incarnation 0, so Delivered must never stand in for it.
	// blocked is the payload wait of the head decision (instance next),
	// timed from blockedAt; fetchFrom is the refetch cursor, kept across waits.
	descDone  map[types.MsgID]uint64
	doneAt    retire.Queue[types.MsgID]
	blocked   bool
	blockedAt time.Duration
	fetchFrom types.ProcessID
}

// New builds one engine's tail from its configuration and, after a restart,
// the state recovery.Boot restored (cfg.Recovered): watermark, delivered
// set, the own backlog's flow slots, sequence numbering, views. It never
// calls h.
func New(env engine.Env, cfg *engine.Config, h Host) *Tail {
	t := &Tail{
		env: env, cfg: cfg, h: h,
		Flow:      flow.NewController(env.Self(), cfg.EffectiveWindow()),
		Hist:      member.NewHistory(env.N()),
		Delivered: dedup.NewMap(env.N()),
		Suspected: make(map[types.ProcessID]bool),
		next:      1,
		retires:   make(map[uint64][]types.ProcessID),
	}
	st := cfg.Recovered
	if st != nil && len(st.Views) > 0 {
		t.Hist = member.NewHistoryFrom(st.Views[0], st.Views[1:]...)
	} else if v := cfg.InitialView; v != nil {
		// A joiner starts from the config it was admitted into.
		t.Hist = member.NewHistoryFrom(*v)
	}
	if cfg.DigestOrdering {
		t.Store = payload.NewStore()
		t.descDone = make(map[types.MsgID]uint64)
	}
	if st == nil {
		return t
	}
	t.next = st.NextDecide
	if st.Delivered != nil {
		t.Delivered = st.Delivered
	}
	seqs := make([]uint64, len(st.Own))
	for i, m := range st.Own {
		seqs[i] = m.ID.Seq
	}
	last := st.NextSeq
	if last > 0 {
		last-- // NextSeq is the next sequence number to assign
	}
	t.Flow.Resume(last, seqs)
	return t
}

// Next returns the lowest instance not yet processed locally.
func (t *Tail) Next() uint64 { return t.next }

// Advance records instance k as processed, at the point each engine always
// moved its watermark: after Commit(k) in the modular layer, before it in
// the monolithic engine.
func (t *Tail) Advance(k uint64) { t.next = k + 1 }

// Commit adelivers decided instance k. batch is its adeliverable form:
// under digest ordering the resolved payload expansion, descs being the
// descriptors it came from (the log stores resolved batches, so replay and
// state transfer need no payload store). The ordered entries leave the
// pool first; the engine advances Next itself.
func (t *Tail) Commit(k uint64, batch wire.Batch, descs []wire.Descriptor) {
	for _, d := range descs {
		t.Pool.Drop(types.MsgID{Sender: d.Origin, Seq: d.DSeq})
	}
	if !t.cfg.DigestOrdering {
		// Under digest ordering the pool holds only descriptor
		// pseudo-messages, whose IDs alias the resolved real IDs at
		// incarnation 0: a drop by real ID could lose an undecided one.
		for _, m := range batch {
			t.Pool.Drop(m.ID)
		}
	}
	if t.cfg.Persist != nil {
		// Write-ahead of the deliveries the decision implies.
		t.cfg.Persist.PersistDecision(k, batch)
	}
	for _, d := range descs {
		t.markDone(d, k)
	}
	ordered := make(wire.Batch, len(batch))
	copy(ordered, batch)
	ordered.SortDeterministic()
	c := t.env.Counters()
	o := t.cfg.Obs
	var now time.Duration
	if o != nil {
		now = t.env.Now()
	}
	for _, m := range ordered {
		if t.Delivered.Seen(m.ID) {
			// With pipelining two concurrent instances may both order a
			// message (it reached different proposers): deliver it once.
			continue
		}
		t.Delivered.Mark(m.ID)
		if op, isCfg := member.DecodeOp(m.Body); isCfg {
			// A config op consumes its slot in the total order but is never
			// delivered: the view change, at the same point everywhere, is it.
			t.applyConfig(k, m.ID, op)
		} else {
			c.ADeliver.Add(1)
			if o != nil {
				o.Stage(m.ID, obs.StageDecide, now)
				o.Delivered(m.ID, now)
			}
			t.env.Deliver(engine.Delivery{Msg: m, Instance: k})
		}
		if err := t.Flow.Delivered(m.ID); err != nil {
			// A duplicate release is a protocol bug: surface it through
			// the counters instead of corrupting state.
			c.Retransmissions.Add(1)
		}
	}
	if t.cfg.DigestOrdering {
		// Sweep pending descriptors the loop made obsolete (see
		// rangeFullyDelivered); nothing else would ever retire them.
		t.Pool.Retire(func(m wire.AppMsg) bool { return t.settled(m, k) })
	}
	for _, origin := range t.retires[k+1] {
		t.retireOrigin(origin) // k was the last old-view instance
	}
	delete(t.retires, k+1)
	if !t.cfg.DigestOrdering {
		return
	}
	// Behind the retention horizon nothing is a servable repair target.
	if h := uint64(t.cfg.DecisionHorizon); h > 0 && k > h {
		t.Store.PruneBelow(k - h)
		for id, ok := t.doneAt.Pop(k - h); ok; id, ok = t.doneAt.Pop(k - h) {
			if t.descDone[id] <= k-h { // not re-marked at a later instance
				delete(t.descDone, id)
			}
		}
	}
	trace.Raise(&c.PayloadStoreMsgs, t.Store.Len())
	trace.Raise(&c.PayloadStoreBytes, t.Store.Bytes())
	trace.Raise(&c.DescriptorsRetained, len(t.descDone))
}

// ReplayViews hands every non-boot view (a joiner's seed, views restored
// at boot) to the host in order, once it can propagate them; the last one
// leaves the host and the flow window at the current view.
func (t *Tail) ReplayViews() {
	for _, v := range t.Hist.Views() {
		if v.Epoch > 0 || t.cfg.InitialView != nil {
			t.reconfigureLocal(v)
		}
	}
}

// applyConfig applies one decided config op at instance k. A failed apply
// (stale epoch, duplicate add, absent remove) is a deterministic no-op:
// everyone rejects the ordered op against the same history. A successful
// one appends the view, activating at k plus the pipeline window.
func (t *Tail) applyConfig(k uint64, id types.MsgID, op member.Op) {
	v, ok := t.Hist.Apply(op, k, t.cfg.EffectivePipeline())
	if s := t.cfg.Snapshots; s != nil && s.ConfigOrdered != nil {
		s.ConfigOrdered(k, id, v, ok)
	}
	if !ok {
		return
	}
	t.env.Counters().ConfigChanges.Add(1)
	t.reconfigureLocal(v)
	if op.Kind == member.OpRemove {
		t.retires[v.Activation] = append(t.retires[v.Activation], op.Target)
	}
	if t.cfg.OnConfig != nil {
		t.cfg.OnConfig(v, op)
	}
}

// reconfigureLocal points the local seams at view v: the host follows the
// member list, and the flow-control window is re-derived from the group
// size if it was the size-derived default (an explicit window stays).
func (t *Tail) reconfigureLocal(v member.View) {
	t.h.ViewChanged(v)
	if t.cfg.Window == engine.DefaultWindow(t.cfg.N) {
		ncfg := *t.cfg
		ncfg.Window = engine.DefaultWindow(len(v.Members))
		t.Flow.SetWindow(ncfg.EffectiveWindow())
	}
}

// send transmits one tail frame, built by fill through a pooled writer of
// the given size hint (types.Nobody: every other current member), and
// returns its encoded size.
func (t *Tail) send(to types.ProcessID, size int, fill func(w *wire.Writer)) int {
	w := wire.GetWriter(size)
	fill(w)
	n := w.Len()
	t.h.Send(to, w.Bytes())
	wire.PutWriter(w)
	return n
}

// retireOrigin drops a removed origin's local state at its activation
// boundary: pending entries (no proposal will carry them again),
// undelivered payload residency (no decision will resolve through it;
// delivered entries stay on the horizon for repair serving), suspicion.
func (t *Tail) retireOrigin(origin types.ProcessID) {
	t.Pool.Retire(func(m wire.AppMsg) bool { return m.ID.Sender == origin })
	delete(t.Suspected, origin)
	if t.Store != nil {
		if retired := t.Store.RetireOrigin(origin); retired > 0 {
			t.env.Counters().PayloadsRetired.Add(int64(retired))
		}
	}
}
