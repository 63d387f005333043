package rsm

import (
	"bytes"
	"sync"
	"time"

	"modab/internal/dedup"
	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/obs"
	"modab/internal/trace"
	"modab/internal/types"
	"modab/internal/wire"
)

// resultHistory bounds the result window backing read-your-writes
// waits: each origin keeps the results of its last resultHistory
// sequence numbers, in a ring indexed by Seq mod resultHistory. An older
// result is evicted (Await then reports a nil result, still proving the
// write applied).
const resultHistory = 4096

// configAt is one restored view (zero id) or one config op the engine
// ordered, with the view it produced if it applied, at instance at.
type configAt struct {
	at   uint64
	id   types.MsgID
	view *member.View
}

// slot is one entry of an origin's result window.
type slot struct {
	seq uint64
	res []byte
}

// Options configures an Applier.
type Options struct {
	// N is the group size (sizes the applied-ID dedup map).
	N int
	// Store is the snapshot store; nil disables snapshotting (the applier
	// still applies and tracks indexes).
	Store Store
	// Interval is the snapshot cadence in instances: a snapshot is taken
	// at the first instance boundary at least Interval instances past the
	// previous one. 0 disables automatic snapshots.
	Interval uint64
	// Counters is the per-process instrumentation sink (may be nil).
	Counters *trace.Counters
	// OnSnapshot, when non-nil, runs after a snapshot reached the Store —
	// both locally taken and installed from a peer. covered reports
	// whether a message was ordered at or below the snapshot index;
	// drivers hook write-ahead-log truncation here.
	OnSnapshot func(index uint64, covered func(m wire.AppMsg) bool)
	// Obs, when non-nil, records per-command apply latency and the apply
	// lifecycle stage of sampled messages. Requires Now.
	Obs *obs.Recorder
	// Now supplies driver-clock timestamps for Obs (engine.Env.Now of the
	// owning process). Ignored when Obs is nil.
	Now func() time.Duration
}

// Applier consumes the totally ordered delivery stream, applies each
// command to the state machine exactly once, snapshots at instance
// boundaries, and answers read-your-writes waits. Drivers call Apply from
// the delivery path; all other methods are safe from any goroutine.
type Applier struct {
	mu sync.Mutex

	sm   StateMachine
	opts Options

	// applied is the highest instance with at least one applied command;
	// open is the instance whose commands are currently arriving (a
	// snapshot may only cover instances strictly below it).
	applied  uint64
	open     uint64
	lastSnap uint64
	// seen is the applier-owned applied-ID set. At an instance boundary it
	// is exactly the set of messages ordered at or below the completed
	// instance — the dedup state carried inside snapshots.
	seen dedup.Map
	// config is the membership history, oldest first. Config ops are
	// never applied, yet a snapshot at index i must cover the ones at or
	// below i: their IDs join its dedup state, their views its Views.
	config []configAt
	epoch  uint64 // of the newest view in config

	results map[types.ProcessID]*[resultHistory]slot // by origin, created at its first apply
	waiters map[types.MsgID][]chan []byte
}

// NewApplier builds an applier over one state machine.
func NewApplier(sm StateMachine, opts Options) *Applier {
	if opts.N < 1 {
		opts.N = 1
	}
	return &Applier{
		sm:      sm,
		opts:    opts,
		seen:    dedup.NewMap(opts.N),
		results: make(map[types.ProcessID]*[resultHistory]slot, opts.N),
		waiters: make(map[types.MsgID][]chan []byte),
	}
}

// Apply consumes one adelivered message: boundary snapshot first (when
// due), then exactly-once apply, result recording and waiter wake-up.
func (a *Applier) Apply(d engine.Delivery) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if d.Instance > a.open {
		completed := a.open
		a.open = d.Instance
		if completed > 0 && a.opts.Interval > 0 && completed-a.lastSnap >= a.opts.Interval {
			a.snapshotLocked(completed)
		}
	}
	seen := a.seen.For(d.Msg.ID.Sender)
	if seen.Seen(d.Msg.ID.Seq) {
		return // replay overlap: already applied by a previous incarnation path
	}
	seen.Mark(d.Msg.ID.Seq)
	var start time.Duration
	if a.opts.Obs != nil && a.opts.Now != nil {
		start = a.opts.Now()
	}
	res := a.sm.Apply(Entry{Instance: d.Instance, ID: d.Msg.ID, Cmd: d.Msg.Body})
	if a.opts.Obs != nil && a.opts.Now != nil {
		a.opts.Obs.Applied(d.Msg.ID, start, a.opts.Now())
	}
	if d.Instance > a.applied {
		a.applied = d.Instance
	}
	if a.opts.Counters != nil {
		a.opts.Counters.Applied.Add(1)
	}
	a.record(d.Msg.ID, res)
	a.wake(d.Msg.ID, res)
}

// snapshotLocked serializes the state machine and applied-ID set at a
// completed instance and persists the envelope. Failures leave the
// previous snapshot in place (the next boundary retries).
func (a *Applier) snapshotLocked(index uint64) {
	if a.opts.Store == nil {
		return
	}
	var buf bytes.Buffer
	if err := a.sm.Snapshot(&buf); err != nil {
		return
	}
	env := wire.SnapshotEnvelope{Index: index, State: buf.Bytes()}
	for _, c := range a.config {
		if c.at <= index && c.id != (types.MsgID{}) {
			a.seen.Mark(c.id)
		}
		if c.at <= index && c.view != nil {
			env.Views = append(env.Views, *c.view)
		}
	}
	env.Dedup = a.seen.MarshalBytes()
	if err := a.opts.Store.Save(env); err != nil {
		return
	}
	a.lastSnap = index
	if a.opts.Counters != nil {
		a.opts.Counters.SnapshotsTaken.Add(1)
	}
	a.afterSnapshotLocked(env)
}

// afterSnapshotLocked runs the driver hook with a covered-predicate built
// from the envelope's own dedup state (exactly the messages ordered at or
// below the snapshot index, never the live set).
func (a *Applier) afterSnapshotLocked(env wire.SnapshotEnvelope) {
	if a.opts.OnSnapshot == nil {
		return
	}
	dm, err := dedup.UnmarshalMap(env.Dedup)
	if err != nil {
		return
	}
	a.opts.OnSnapshot(env.Index, func(m wire.AppMsg) bool { return dm.Seen(m.ID) })
}

// Install adopts a snapshot fetched from a peer: restore the state
// machine, merge the applied-ID set, jump the indexes, persist the
// envelope locally (so this process can serve it onward and restart from
// it), and release waiters whose writes the snapshot covers.
func (a *Applier) Install(env wire.SnapshotEnvelope) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, err := a.adoptLocked(env); err != nil {
		return err
	}
	if a.opts.Store != nil {
		if err := a.opts.Store.Save(env); err == nil {
			a.afterSnapshotLocked(env)
		}
	}
	for id, chans := range a.waiters {
		if a.seen.Seen(id) {
			for _, ch := range chans {
				ch <- nil
			}
			delete(a.waiters, id)
		}
	}
	return nil
}

// Bootstrap restores the state machine from the newest local snapshot (if
// any) before log replay and returns that envelope with its decoded dedup
// map (a zero envelope and a nil map without one); recovery.Boot seeds the
// engine's recovered state from them and replays only the log suffix
// above the envelope's index.
func (a *Applier) Bootstrap() (env wire.SnapshotEnvelope, dm dedup.Map, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.opts.Store == nil {
		return env, nil, nil
	}
	env, ok := a.opts.Store.LatestEnvelope()
	if !ok {
		return env, nil, nil
	}
	if dm, err = a.adoptLocked(env); err != nil {
		return wire.SnapshotEnvelope{}, nil, err
	}
	return env, dm, nil
}

// ConfigOrdered is the engine's SnapshotHooks.ConfigOrdered; recovery.Boot
// reports the views it restores at instance k through it too, with a zero
// id.
func (a *Applier) ConfigOrdered(k uint64, id types.MsgID, v member.View, applied bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.configLocked(k, id, v, applied)
}

// configLocked records one config entry; a view no newer than the last
// one recorded (already held) is dropped.
func (a *Applier) configLocked(k uint64, id types.MsgID, v member.View, ok bool) {
	c := configAt{at: k, id: id}
	if ok && (len(a.config) == 0 || v.Epoch > a.epoch) {
		c.view, a.epoch = &v, v.Epoch
	}
	if c.view != nil || id != (types.MsgID{}) {
		a.config = append(a.config, c)
	}
}

// adoptLocked restores the state machine from a snapshot envelope, merges
// its applied-ID set and views, and jumps the indexes to it.
func (a *Applier) adoptLocked(env wire.SnapshotEnvelope) (dedup.Map, error) {
	dm, err := dedup.UnmarshalMap(env.Dedup)
	if err != nil {
		return nil, err
	}
	if err := a.sm.Restore(bytes.NewReader(env.State)); err != nil {
		return nil, err
	}
	a.seen.Merge(dm)
	for _, v := range env.Views {
		a.configLocked(env.Index, types.MsgID{}, v, true)
	}
	a.applied, a.open, a.lastSnap = env.Index, env.Index, env.Index
	return dm, nil
}

// Hooks returns the engine-facing snapshot hooks backed by this applier
// and its store.
func (a *Applier) Hooks() *engine.SnapshotHooks {
	return &engine.SnapshotHooks{
		Latest: func() (uint64, bool) {
			if a.opts.Store == nil {
				return 0, false
			}
			return a.opts.Store.Latest()
		},
		Read: func(index uint64, off, max int) ([]byte, int, bool) {
			if a.opts.Store == nil {
				return nil, 0, false
			}
			return a.opts.Store.ReadAt(index, off, max)
		},
		Install:       a.Install,
		ConfigOrdered: a.ConfigOrdered,
	}
}

// AppliedIndex returns the highest instance with an applied command.
func (a *Applier) AppliedIndex() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}

// Await returns a channel that receives the message's apply result
// exactly once — immediately when already applied (nil result when the
// result left its origin's window or arrived inside an installed
// snapshot), else upon apply. This is the read-your-writes wait the KV
// service builds on. Every waiter of one message receives the same
// slice, and state machines may share status-only results across
// messages (KV does), so a result is read-only.
func (a *Applier) Await(id types.MsgID) <-chan []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	ch := make(chan []byte, 1)
	if a.seen.Seen(id) {
		var res []byte
		if w := a.results[id.Sender]; w != nil && w[id.Seq%resultHistory].seq == id.Seq {
			res = w[id.Seq%resultHistory].res
		}
		ch <- res
		return ch
	}
	a.waiters[id] = append(a.waiters[id], ch)
	return ch
}

// StateDigest serializes the current state machine state canonically
// (the same bytes every replica with equal state produces) — the chaos
// harness's applied-state equivalence check compares these.
func (a *Applier) StateDigest() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	var buf bytes.Buffer
	if err := a.sm.Snapshot(&buf); err != nil {
		return nil
	}
	return buf.Bytes()
}

// record stores one apply result in its origin's window, evicting the
// result resultHistory sequence numbers older (never a newer one).
func (a *Applier) record(id types.MsgID, res []byte) {
	w := a.results[id.Sender]
	if w == nil {
		w = new([resultHistory]slot)
		a.results[id.Sender] = w
	}
	if sl := &w[id.Seq%resultHistory]; sl.seq < id.Seq {
		*sl = slot{seq: id.Seq, res: res}
	}
}

// wake releases the waiters of one applied message.
func (a *Applier) wake(id types.MsgID, res []byte) {
	chans, ok := a.waiters[id]
	if !ok {
		return
	}
	delete(a.waiters, id)
	for _, ch := range chans {
		ch <- res
	}
}
