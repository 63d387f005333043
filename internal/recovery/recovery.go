// Package recovery implements the crash-recovery subsystem shared by both
// atomic broadcast stacks: the durable-store contract the engines persist
// through, the replay that turns a write-ahead log back into engine state,
// and the bookkeeping (Catchup) of the state-transfer protocol a restarted
// node runs to fetch the decisions it missed while down. The protocol's
// message handling — steps 2 to 4 below, plus the snapshot branch and the
// stall timer — is implemented once for both stacks in internal/tail
// (transfer.go); the engines only encode its messages.
//
// The paper's system model (§2.1) is crash-stop: a crashed process is gone
// forever. This package relaxes that to crash-recovery — a process may
// stop and later restart with its stable storage intact — which is the
// model a deployable atomic broadcast service needs (cf. Ring Paxos's
// treatment of recovery as a first-class concern). The protocol:
//
//  1. Boot: the restarting node restores its newest local snapshot and
//     makes one pass over the log suffix above it (Boot), reconstructing
//     its decided watermark, the per-sender delivered state, its unordered
//     own messages, its next sequence number, its state machine and its
//     membership views (the snapshot's views plus the config ops the log
//     still holds).
//  2. Announce: the tail broadcasts a state-transfer request carrying
//     its decided watermark (wire.FrameRecoverReq, in both stacks).
//  3. Catch-up: live peers answer with chunks of contiguous decided
//     instances (served from memory or their own log); the node applies
//     them through its normal decision path — persisting and adelivering
//     each — and pulls the next chunk until it reaches the highest decided
//     instance any peer reported.
//  4. Resume: only then does the node propose again, exactly at the right
//     instance and sequence number — no duplicate, missed, or reordered
//     deliveries.
//
// While catching up the node neither proposes nor advances rounds for
// instances below its target: a recovering process re-entering consensus
// instances that its peers have long decided (and pruned past their
// retention horizon) could otherwise manufacture a second, conflicting
// decision. Consensus votes themselves are not persisted — the recovery
// guarantee therefore assumes, like the paper's model, that a majority of
// processes stays up while an instance is in flight (see
// docs/ARCHITECTURE.md for the model delta).
package recovery

import (
	"fmt"
	"time"

	"modab/internal/dedup"
	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/rsm"
	"modab/internal/trace"
	"modab/internal/types"
	"modab/internal/wire"
)

// ChunkInstances is how many decided instances a state-transfer response
// carries at most; the requester pulls chunk after chunk until caught up.
const ChunkInstances = 32

// RecKind discriminates write-ahead log records.
type RecKind uint8

const (
	// RecAdmit records locally admitted application messages (written
	// before their first diffusion).
	RecAdmit RecKind = 1
	// RecDecision records one decided consensus instance (written before
	// its batch is adelivered).
	RecDecision RecKind = 2
	// RecBoot marks one incarnation starting. Drivers stamp it on every
	// store open, so a process that crashed before logging any protocol
	// record is still recognized as restarting — it must catch up, not
	// rejoin as if the group were fresh.
	RecBoot RecKind = 3
)

// Rec is one replayed log record.
type Rec struct {
	Kind RecKind
	// Instance is set for RecDecision records.
	Instance uint64
	// Batch carries the admitted messages (RecAdmit) or the decided batch
	// (RecDecision).
	Batch wire.Batch
}

// Store is the durable persistence abstraction of the subsystem: the
// engines write through it (engine.Persister), replay reads it back, and
// state transfer serves old decisions from it. internal/wal implements it
// on segmented files; MemStore implements it in memory for the
// deterministic simulator and for tests.
type Store interface {
	engine.Persister
	// PersistBoot stamps the start of a new incarnation (see RecBoot).
	PersistBoot()
	// Replay streams every record from the beginning of the log in append
	// order. A non-nil error from fn aborts the replay and is returned.
	Replay(fn func(r Rec) error) error
	// Sync flushes buffered appends to stable storage.
	Sync() error
	// TruncateBelow drops log state made redundant by a durable snapshot
	// at instance snap: decision records at or below snap, and admit
	// records all of whose messages covered reports as folded into the
	// snapshot. Boot markers are never dropped — they carry the
	// incarnation count, which no snapshot covers. Implementations may
	// retain more than required (the WAL frees whole segments only); they
	// must never drop anything else. Returns the number of storage units
	// removed (segments for the WAL, records for MemStore); snap == 0
	// is a no-op.
	TruncateBelow(snap uint64, covered func(m wire.AppMsg) bool) int
	// Close syncs and releases the store. The underlying log remains on
	// stable storage for the next incarnation to replay.
	Close() error
}

// Incarnation is what a process incarnation boots from (see Boot).
type Incarnation struct {
	Self types.ProcessID
	N    int // the boot group size (engine.Env.N)
	// Engine carries the protocol tunables, plus Obs and a spawned
	// joiner's InitialView; Boot fills in the other driver fields.
	Engine engine.Config
	Store  Store // the write-ahead log; nil runs without crash recovery
	// StateMachine, when non-nil, is fed through the returned applier,
	// snapshotting into Snapshots every SnapshotEvery instances.
	StateMachine  rsm.StateMachine
	Snapshots     rsm.Store
	SnapshotEvery uint64
	Counters      *trace.Counters
	Now           func() time.Duration
}

// Boot starts one process incarnation — the one boot path of every
// driver, for a first start, a restart and a joiner's spawn. It builds
// the applier (its snapshots truncate the log), restores the newest local
// snapshot into it and makes one pass over the log, then stamps the boot
// marker and returns the engine configuration; drivers add OnConfig and
// pick the stack. Recovered is nil only for a boot member's first start:
// a process outside the boot group with an empty log is a joiner and,
// like a restart, catches up before participating.
func Boot(in Incarnation) (engine.Config, *rsm.Applier, error) {
	cfg := in.Engine
	var app *rsm.Applier
	booting := true // snapshots taken during the replay leave the log alone
	if in.StateMachine != nil {
		ro := rsm.Options{N: in.N, Store: in.Snapshots, Interval: in.SnapshotEvery,
			Counters: in.Counters, Obs: cfg.Obs, Now: in.Now}
		if s := in.Store; s != nil {
			ro.OnSnapshot = func(snap uint64, covered func(m wire.AppMsg) bool) {
				if booting {
					return
				}
				if removed := s.TruncateBelow(snap, covered); removed > 0 && in.Counters != nil {
					in.Counters.WalTruncatedSegments.Add(int64(removed))
				}
			}
		}
		app = rsm.NewApplier(in.StateMachine, ro)
		cfg.Snapshots = app.Hooks()
	}
	var err error
	cfg.Recovered, err = replay(in.Store, app, &cfg, in.Self, in.N)
	booting = false
	if err != nil {
		return cfg, nil, fmt.Errorf("recovery: %w", err)
	}
	if in.Store != nil {
		in.Store.PersistBoot()
		cfg.Persist = in.Store
	}
	return cfg, app, nil
}

// replay restores the newest local snapshot into app, then makes one pass
// over the log s (if any): each decision above the snapshot goes, in
// delivery order, into the recovered state, into app and — its config
// ops — into the view history seeded from the snapshot.
func replay(s Store, app *rsm.Applier, cfg *engine.Config, self types.ProcessID, n int) (*engine.RecoveredState, error) {
	hist := member.NewHistory(n)
	if v := cfg.InitialView; v != nil {
		hist = member.NewHistoryFrom(*v)
	}
	st := &engine.RecoveredState{NextDecide: 1, Delivered: dedup.NewMap(n)}
	var snap, maxSeq uint64
	if app != nil {
		env, dm, err := app.Bootstrap()
		if err != nil {
			return nil, fmt.Errorf("restoring local snapshot: %w", err)
		}
		if dm != nil {
			snap, st.NextDecide = env.Index, env.Index+1
			st.Delivered.Merge(dm)
			// The own highest ordered sequence number survives in the
			// snapshot even after its admit records were truncated away.
			maxSeq = dm.For(self).MaxSeen()
			for _, v := range env.Views {
				hist.Adopt(v)
			}
		}
		for _, v := range hist.Views() {
			app.ConfigOrdered(snap, types.MsgID{}, v, true)
		}
	}
	admitted := make(map[uint64]wire.AppMsg) // own seq -> msg, not yet ordered
	empty := true
	if s != nil {
		err := s.Replay(func(r Rec) error {
			empty = false
			switch r.Kind {
			case RecAdmit:
				for _, m := range r.Batch {
					admitted[m.ID.Seq] = m
					maxSeq = max(maxSeq, m.ID.Seq)
				}
			case RecDecision:
				if r.Instance < st.NextDecide {
					// Duplicate from a previous incarnation's catch-up, or an
					// instance the snapshot already covers; the append order
					// still guarantees instances never regress below what
					// replay already processed.
					return nil
				}
				if r.Instance != st.NextDecide {
					return fmt.Errorf("log skips from instance %d to %d", st.NextDecide, r.Instance)
				}
				batch := r.Batch
				if app != nil {
					// Sorted, the batch is exactly what was adelivered.
					batch = append(wire.Batch(nil), r.Batch...)
					batch.SortDeterministic()
				}
				for _, m := range batch {
					st.Delivered.Mark(m.ID)
					st.ReplayedMsgs++
					if m.ID.Sender == self {
						delete(admitted, m.ID.Seq)
						maxSeq = max(maxSeq, m.ID.Seq)
					}
					// Config ops ride the total order (logged batches hold
					// resolved bodies in both ordering modes); they change
					// the views, never the state machine.
					if op, isCfg := member.DecodeOp(m.Body); isCfg {
						v, ok := hist.Apply(op, r.Instance, cfg.EffectivePipeline())
						if app != nil {
							app.ConfigOrdered(r.Instance, m.ID, v, ok)
						}
					} else if app != nil {
						app.Apply(engine.Delivery{Msg: m, Instance: r.Instance})
					}
				}
				st.NextDecide++
			case RecBoot:
				// A previous incarnation existed; beyond making the replay
				// non-empty, the marker count becomes the new incarnation's
				// number (wire-visible sequence numbering is namespaced by it).
				st.Boots++
			default:
				return fmt.Errorf("unknown record kind %d", r.Kind)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("replaying durable store: %w", err)
		}
	}
	if empty && snap == 0 && self < types.ProcessID(n) {
		return nil, nil
	}
	st.NextSeq = maxSeq + 1
	st.Own = make(wire.Batch, 0, len(admitted))
	for _, m := range admitted {
		// An admit whose message the snapshot already covers was ordered
		// before the boundary; re-proposing it would deliver a duplicate.
		if !st.Delivered.Seen(m.ID) {
			st.Own = append(st.Own, m)
		}
	}
	st.Own.SortDeterministic()
	st.Views = hist.Views()
	return st, nil
}

// Catchup tracks one restarted engine's state-transfer progress. Engines
// drive it from their single-threaded event loop; it needs no locking.
type Catchup struct {
	// active reports that the engine is still fetching missed decisions
	// and must not propose.
	active bool
	// target is the highest decided instance any peer has reported.
	target uint64
	// startedAt is the engine clock when recovery began (latency metric).
	startedAt time.Duration
	// quorum is how many distinct peers must report their horizon before
	// the catch-up may finish; responders records who already did. The
	// first response could come from a peer that is itself behind (e.g.
	// in a simultaneous restart) — finishing against its horizon alone
	// would let a lagging node resume proposing into instances the rest
	// of the cluster decided and pruned long ago.
	quorum     int
	responders map[types.ProcessID]struct{}
}

// Quorum returns how many distinct peer horizons a recovering process of
// an n-group waits for before trusting its catch-up target: enough that
// the process plus the responders form a majority. Exactly satisfiable
// whenever the cluster can make progress at all (a majority up), so
// waiting for it never blocks a recoverable configuration.
func Quorum(n int) int { return types.Majority(n) - 1 }

// Begin marks the catch-up active from now (engine clock); quorum is the
// number of distinct responders required to finish (see Quorum).
func (c *Catchup) Begin(now time.Duration, quorum int) {
	c.active = true
	c.startedAt = now
	c.quorum = quorum
	c.responders = make(map[types.ProcessID]struct{})
}

// Active reports whether the engine is still catching up.
func (c *Catchup) Active() bool { return c.active }

// Observe folds one peer's reported decided horizon into the target.
func (c *Catchup) Observe(from types.ProcessID, upTo uint64) {
	if c.responders != nil {
		c.responders[from] = struct{}{}
	}
	if upTo > c.target {
		c.target = upTo
	}
}

// Target returns the highest decided instance reported so far.
func (c *Catchup) Target() uint64 { return c.target }

// MaybeFinish ends the catch-up once a quorum of peers has reported and
// the engine's next undecided instance passed every reported target; it
// returns the recovery latency and true exactly once, at the transition.
func (c *Catchup) MaybeFinish(nextDecide uint64, now time.Duration) (time.Duration, bool) {
	if !c.active || nextDecide <= c.target || len(c.responders) < c.quorum {
		return 0, false
	}
	c.active = false
	return now - c.startedAt, true
}

// ChunkEnd returns the last instance of the response chunk that starts at
// from given the responder's decided horizon (0 when nothing to serve).
func ChunkEnd(from, decidedUpTo uint64) uint64 {
	if from > decidedUpTo {
		return 0
	}
	end := from + ChunkInstances - 1
	if end > decidedUpTo {
		end = decidedUpTo
	}
	return end
}
