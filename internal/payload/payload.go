// Package payload implements the resident payload store for digest
// ordering (modab.WithDigestOrdering): the bounded side table holding
// disseminated application messages while consensus orders only their
// compact descriptors (internal/wire.Descriptor).
//
// An announce, a payload-fetch response or a restarted origin's replayed
// backlog makes a batch resident (PutBatch); when its descriptor decides,
// MarkDelivered stamps the range with the instance; PruneBelow drops
// delivered entries once their instance falls behind the decision
// retention horizon (until then they serve lagging peers' payload
// fetches), walking the stamped ranges, not the resident set. Undelivered
// entries are capped by the origins' flow-control windows, so the store
// needs no eviction policy of its own.
//
// Each origin has one window: its entries sorted by seq, unique. Seqs
// ascend, so a lookup is the O(1) index seq − w[0].seq, with a binary
// search when that misses (a restart's jump, a joiner far above 0, a
// refill of a pruned range): memory stays O(resident) however far seqs
// jump. Bodies are stored as given — under digest ordering, read-only
// views into the frame they arrived in — so a frame lives until the last
// of its messages is pruned.
//
// The store is driven from the owning engine's single-threaded event
// loop: no locks, clocks, or I/O.
package payload

import (
	"cmp"
	"slices"

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

func (e entry) seq() uint64 { return e.msg.ID.Seq }

// window holds one origin's resident entries, sorted by seq, unique.
type window struct{ e []entry }

// find returns the index of seq, or where it would be inserted.
func (w *window) find(seq uint64) (int, bool) {
	if len(w.e) > 0 && seq >= w.e[0].seq() {
		if i := seq - w.e[0].seq(); i < uint64(len(w.e)) && w.e[i].seq() == seq {
			return int(i), true
		}
	}
	return slices.BinarySearchFunc(w.e, seq, func(e entry, seq uint64) int { return cmp.Compare(e.seq(), seq) })
}

// run returns the bounds [lo, hi) of the resident entries inside d's range.
func (w *window) run(d wire.Descriptor) (lo, hi int) {
	lo, _ = w.find(d.FirstSeq)
	for hi = lo; hi < len(w.e) && w.e[hi].seq()-d.FirstSeq < uint64(d.Count); hi++ {
	}
	return lo, hi
}

// Store indexes resident payload messages by (origin, application seq).
type Store struct {
	byOrigin map[types.ProcessID]*window
	// delivered queues each stamped range under its instance, for PruneBelow.
	delivered retire.Queue[wire.Descriptor]
	bytes     int
	count     int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byOrigin: make(map[types.ProcessID]*window)}
}

// Len returns the number of resident messages.
func (s *Store) Len() int { return s.count }

// Bytes returns the total body bytes resident.
func (s *Store) Bytes() int { return s.bytes }

// PutBatch makes every message of a batch resident. Re-putting a resident
// seq is a no-op (the first copy wins; a re-announce after restart
// carries identical bodies for surviving seqs, and dedup at delivery
// handles the rest).
func (s *Store) PutBatch(b wire.Batch) {
	var w *window
	for i, m := range b {
		if w == nil || m.ID.Sender != b[i-1].ID.Sender {
			if w = s.byOrigin[m.ID.Sender]; w == nil {
				w = new(window)
				s.byOrigin[m.ID.Sender] = w
			}
		}
		e := entry{msg: m}
		if n := len(w.e); n == 0 || m.ID.Seq > w.e[n-1].seq() {
			w.e = append(slices.Grow(w.e, len(b)-i), e)
		} else if j, ok := w.find(m.ID.Seq); !ok {
			w.e = slices.Insert(w.e, j, e)
		} else {
			continue
		}
		s.bytes += len(m.Body)
		s.count++
	}
}

// span returns the entries of d's range if every one is resident:
// entries are sorted and unique, so the two ends decide it.
func (s *Store) span(d wire.Descriptor) ([]entry, bool) {
	w := s.byOrigin[d.Origin]
	if w == nil {
		return nil, false
	}
	i, ok := w.find(d.FirstSeq)
	end := i + int(d.Count)
	if !ok || end > len(w.e) || w.e[end-1].seq()-d.FirstSeq != uint64(d.Count)-1 {
		return nil, false
	}
	return w.e[i:end], true
}

// Has reports whether every message of the descriptor's range is
// resident.
func (s *Store) Has(d wire.Descriptor) bool {
	_, ok := s.span(d)
	return ok
}

// Range resolves a descriptor to its payload batch, in sequence order.
// Returns false if any message of the range is not resident.
func (s *Store) Range(d wire.Descriptor) (wire.Batch, bool) {
	run, ok := s.span(d)
	if !ok {
		return nil, false
	}
	b := make(wire.Batch, len(run))
	for i, e := range run {
		b[i] = e.msg
	}
	return b, true
}

// MarkDelivered stamps the descriptor's range as adelivered at instance
// k, starting its retention countdown. Messages of the range that are not
// resident (already pruned, or delivered through an overlapping
// post-restart descriptor) are skipped.
func (s *Store) MarkDelivered(d wire.Descriptor, k uint64) {
	w := s.byOrigin[d.Origin]
	if w == nil || len(w.e) == 0 {
		return
	}
	lo, hi := w.run(d)
	for i := lo; i < hi; i++ {
		if w.e[i].deliveredAt == 0 {
			w.e[i].deliveredAt = k
		}
	}
	s.delivered.Push(k, d)
}

// drop removes every entry of w.e[lo:hi] that gone selects, keeping the
// rest in order; a front run with nothing kept is dropped by reslicing.
// It returns how many entries went.
func (s *Store) drop(w *window, lo, hi int, gone func(entry) bool) int {
	j := lo
	for i := lo; i < hi; i++ {
		if e := w.e[i]; gone(e) {
			s.bytes -= len(e.msg.Body)
			s.count--
		} else {
			w.e[j] = e
			j++
		}
	}
	switch {
	case j == hi:
	case j == 0:
		clear(w.e[:hi])
		w.e = w.e[hi:]
	default:
		w.e = slices.Delete(w.e, j, hi)
	}
	return hi - j
}

// RetireOrigin drops every undelivered entry of the given origin and
// returns how many: at the remove boundary, since no descriptor can decide
// for a removed origin's undelivered batches any more. Delivered entries
// stay on horizon retention — they may still serve payload-fetch repair.
func (s *Store) RetireOrigin(origin types.ProcessID) int {
	w := s.byOrigin[origin]
	if w == nil {
		return 0
	}
	retired := s.drop(w, 0, len(w.e), func(e entry) bool { return e.deliveredAt == 0 })
	if len(w.e) == 0 {
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
	gone := func(e entry) bool { return e.deliveredAt != 0 && e.deliveredAt <= cutoff }
	for d, ok := s.delivered.Pop(cutoff); ok; d, ok = s.delivered.Pop(cutoff) {
		if w := s.byOrigin[d.Origin]; w != nil {
			lo, hi := w.run(d)
			s.drop(w, lo, hi, gone)
		}
	}
}
