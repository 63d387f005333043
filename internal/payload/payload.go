// Package payload implements the resident payload store for digest
// ordering (modab.WithDigestOrdering): the bounded, origin+seq-indexed
// side table holding disseminated application messages while consensus
// orders only their compact descriptors (internal/wire.Descriptor).
//
// Life cycle of an entry:
//
//   - an announce (or payload-fetch response, or a restarted origin's
//     replayed backlog) Puts the batch's messages;
//   - when the descriptor decides and the engine adelivers the resolved
//     messages, MarkDelivered stamps the range with its instance number;
//   - PruneBelow(cutoff) drops delivered entries whose instance fell
//     behind the engine's decision retention horizon — until then they
//     remain servable to lagging peers through the payload-fetch repair
//     path, mirroring how decided instances themselves are retained. It
//     walks the ranges stamped at or below the cutoff, not the resident set.
//
// The store is bounded without its own eviction policy: undelivered
// entries are capped by the per-origin flow-control windows (an origin
// cannot have more undelivered messages in flight than its window), and
// delivered entries are capped by the decision horizon via PruneBelow.
//
// Like the batching accumulator, the store is a pure data structure driven
// from the owning engine's single-threaded event loop: no locks, clocks,
// or I/O.
package payload

import (
	"modab/internal/retire"
	"modab/internal/types"
	"modab/internal/wire"
)

// entry is one resident message and the instance that delivered it
// (0 = not yet adelivered).
type entry struct {
	msg         wire.AppMsg
	deliveredAt uint64
}

// Store indexes resident payload messages by (origin, application seq).
type Store struct {
	byOrigin map[types.ProcessID]map[uint64]entry
	// delivered queues each stamped range under its instance, for PruneBelow.
	delivered retire.Queue[wire.Descriptor]
	bytes     int
	count     int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byOrigin: make(map[types.ProcessID]map[uint64]entry)}
}

// Len returns the number of resident messages.
func (s *Store) Len() int { return s.count }

// Bytes returns the total body bytes resident.
func (s *Store) Bytes() int { return s.bytes }

// Put makes one message resident. Re-putting an existing seq is a no-op
// (the first copy wins; a re-announce after restart carries identical
// bodies for surviving seqs, and dedup at delivery handles the rest).
func (s *Store) Put(m wire.AppMsg) {
	seqs := s.byOrigin[m.ID.Sender]
	if seqs == nil {
		seqs = make(map[uint64]entry)
		s.byOrigin[m.ID.Sender] = seqs
	}
	if _, ok := seqs[m.ID.Seq]; ok {
		return
	}
	seqs[m.ID.Seq] = entry{msg: m}
	s.bytes += len(m.Body)
	s.count++
}

// PutBatch makes every message of a batch resident.
func (s *Store) PutBatch(b wire.Batch) {
	for _, m := range b {
		s.Put(m)
	}
}

// Get returns one resident message.
func (s *Store) Get(origin types.ProcessID, seq uint64) (wire.AppMsg, bool) {
	e, ok := s.byOrigin[origin][seq]
	return e.msg, ok
}

// Has reports whether every message of the descriptor's range is
// resident.
func (s *Store) Has(d wire.Descriptor) bool {
	seqs := s.byOrigin[d.Origin]
	if len(seqs) == 0 {
		return false
	}
	for i := uint32(0); i < d.Count; i++ {
		if _, ok := seqs[d.FirstSeq+uint64(i)]; !ok {
			return false
		}
	}
	return true
}

// Range resolves a descriptor to its payload batch, in sequence order.
// Returns false if any message of the range is not resident.
func (s *Store) Range(d wire.Descriptor) (wire.Batch, bool) {
	seqs := s.byOrigin[d.Origin]
	if len(seqs) == 0 {
		return nil, false
	}
	b := make(wire.Batch, 0, d.Count)
	for i := uint32(0); i < d.Count; i++ {
		e, ok := seqs[d.FirstSeq+uint64(i)]
		if !ok {
			return nil, false
		}
		b = append(b, e.msg)
	}
	return b, true
}

// MarkDelivered stamps the descriptor's range as adelivered at instance
// k, starting its retention countdown. Messages of the range that are not
// resident (already pruned, or delivered through an overlapping
// post-restart descriptor) are skipped.
func (s *Store) MarkDelivered(d wire.Descriptor, k uint64) {
	seqs := s.byOrigin[d.Origin]
	if len(seqs) == 0 {
		return
	}
	for i := uint32(0); i < d.Count; i++ {
		seq := d.FirstSeq + uint64(i)
		if e, ok := seqs[seq]; ok && e.deliveredAt == 0 {
			e.deliveredAt = k
			seqs[seq] = e
		}
	}
	s.delivered.Push(k, d)
}

// RetireOrigin drops every undelivered entry of the given origin,
// returning how many were dropped. It is the remove-boundary
// counterpart of PruneBelow: once an origin has been removed from the
// group, no descriptor can ever decide for its still-undelivered
// announced batches, so without retirement they would sit in the store
// until process shutdown (the flow-window bound caps them but never
// frees them). Delivered entries are left to normal horizon retention —
// they may still serve payload-fetch repair for lagging peers.
func (s *Store) RetireOrigin(origin types.ProcessID) int {
	seqs := s.byOrigin[origin]
	retired := 0
	for seq, e := range seqs {
		if e.deliveredAt == 0 {
			delete(seqs, seq)
			s.bytes -= len(e.msg.Body)
			s.count--
			retired++
		}
	}
	if len(seqs) == 0 {
		delete(s.byOrigin, origin)
	}
	return retired
}

// PruneBelow drops every delivered entry whose delivery instance is at or
// below cutoff. Undelivered entries are never pruned — they are bounded by
// the origins' flow windows and still needed for delivery; an entry of a
// retired range that was put again since, or stamped by a later
// overlapping descriptor, is skipped here and leaves with that stamp.
func (s *Store) PruneBelow(cutoff uint64) {
	for d, ok := s.delivered.Pop(cutoff); ok; d, ok = s.delivered.Pop(cutoff) {
		seqs := s.byOrigin[d.Origin]
		for i := uint32(0); i < d.Count; i++ {
			seq := d.FirstSeq + uint64(i)
			if e, ok := seqs[seq]; ok && e.deliveredAt != 0 && e.deliveredAt <= cutoff {
				delete(seqs, seq)
				s.bytes -= len(e.msg.Body)
				s.count--
			}
		}
		if len(seqs) == 0 {
			delete(s.byOrigin, d.Origin)
		}
	}
}
