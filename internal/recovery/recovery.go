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
//  1. Replay: the restarting node replays its local log (ReplayState),
//     reconstructing its decided watermark, the per-sender delivered
//     state, its unordered own messages, and its next sequence number.
//  2. Announce: the tail broadcasts a state-transfer request carrying
//     its decided watermark (wire.FrameRecoverReq in the modular stack, a
//     RECOVER message in the monolithic one).
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

// ReplayState replays a store into the compact state a restarting engine
// is seeded with. It returns nil for an empty (first-boot) log.
func ReplayState(s Store, n int) (*engine.RecoveredState, error) {
	return ReplayStateFrom(s, n, types.Nobody, 0, nil)
}

// ReplayStateFrom is ReplayState seeded with a local snapshot: the log is
// replayed on top of the snapshot boundary, so only the suffix above snap
// contributes replayed decisions (O(suffix), not O(history) — the point
// of snapshotting). snapDedup is the delivered state carried by the
// snapshot envelope; self lets the node's own highest ordered sequence
// number be recovered from it even after the admit records were
// truncated away. With snap == 0 it degenerates to a plain replay.
func ReplayStateFrom(s Store, n int, self types.ProcessID, snap uint64, snapDedup dedup.Map) (*engine.RecoveredState, error) {
	st := &engine.RecoveredState{
		NextDecide: snap + 1,
		Delivered:  dedup.NewMap(n),
	}
	if snapDedup != nil {
		st.Delivered.Merge(snapDedup)
	}
	admitted := make(map[uint64]wire.AppMsg) // own seq -> msg, not yet ordered
	selfKnown := self != types.Nobody        // admit records also identify the local process
	var maxSeq uint64
	if selfKnown && snapDedup != nil {
		maxSeq = snapDedup.For(self).MaxSeen()
	}
	empty := true
	err := s.Replay(func(r Rec) error {
		empty = false
		switch r.Kind {
		case RecAdmit:
			for _, m := range r.Batch {
				self = m.ID.Sender
				selfKnown = true
				admitted[m.ID.Seq] = m
				if m.ID.Seq > maxSeq {
					maxSeq = m.ID.Seq
				}
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
				return fmt.Errorf("recovery: log skips from instance %d to %d", st.NextDecide, r.Instance)
			}
			for _, m := range r.Batch {
				st.Delivered.Mark(m.ID)
				st.ReplayedMsgs++
				if selfKnown && m.ID.Sender == self {
					delete(admitted, m.ID.Seq)
					if m.ID.Seq > maxSeq {
						maxSeq = m.ID.Seq
					}
				}
			}
			st.NextDecide++
		case RecBoot:
			// A previous incarnation existed; beyond making the replay
			// non-empty, the marker count becomes the new incarnation's
			// number (wire-visible sequence numbering is namespaced by it).
			st.Boots++
		default:
			return fmt.Errorf("recovery: unknown record kind %d", r.Kind)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if empty && snap == 0 {
		return nil, nil
	}
	st.NextSeq = maxSeq + 1
	st.Own = make(wire.Batch, 0, len(admitted))
	for _, m := range admitted {
		// An admit whose message the snapshot already covers was ordered
		// before the boundary; re-proposing it would deliver a duplicate.
		if st.Delivered.Seen(m.ID) {
			continue
		}
		st.Own = append(st.Own, m)
	}
	st.Own.SortDeterministic()
	return st, nil
}

// Boot is the snapshot-anchored start of one process incarnation over its
// durable store — the single boot path of every driver (runtime.NewNode,
// netsim's Restart and joiner spawn). It restores the newest local
// snapshot into app (nil without a state machine, which degenerates to the
// plain full-log replay), replays only the log suffix above it — into the
// returned engine state and, in delivery order, into app — and stamps the
// new incarnation's boot marker. The state is nil for a first boot (empty
// log, no snapshot).
func Boot(s Store, app *rsm.Applier, n int, self types.ProcessID) (*engine.RecoveredState, error) {
	var snap uint64
	var snapDedup dedup.Map
	if app != nil {
		var err error
		if snap, snapDedup, err = app.Bootstrap(); err != nil {
			return nil, fmt.Errorf("recovery: restoring local snapshot: %w", err)
		}
	}
	st, err := ReplayStateFrom(s, n, self, snap, snapDedup)
	if err != nil {
		return nil, fmt.Errorf("recovery: replaying durable store: %w", err)
	}
	if app != nil {
		// Re-apply the replayed suffix in delivery order (the decided batch,
		// deterministically sorted, is exactly what the previous incarnation
		// adelivered); the applier's dedup absorbs messages the snapshot
		// already covers.
		err := s.Replay(func(r Rec) error {
			if r.Kind != RecDecision || r.Instance <= snap {
				return nil
			}
			ordered := append(wire.Batch(nil), r.Batch...)
			ordered.SortDeterministic()
			for _, m := range ordered {
				app.Apply(engine.Delivery{Msg: m, Instance: r.Instance})
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("recovery: replaying suffix into state machine: %w", err)
		}
	}
	s.PersistBoot()
	return st, nil
}

// TruncateOnSnapshot returns the rsm.Options.OnSnapshot hook of a durable
// process: every snapshot that reaches the snapshot store frees the log
// state below it, counted in c.WalTruncatedSegments.
func TruncateOnSnapshot(s Store, c *trace.Counters) func(snap uint64, covered func(m wire.AppMsg) bool) {
	return func(snap uint64, covered func(m wire.AppMsg) bool) {
		if removed := s.TruncateBelow(snap, covered); removed > 0 {
			c.WalTruncatedSegments.Add(int64(removed))
		}
	}
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
