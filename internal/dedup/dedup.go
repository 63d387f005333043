// Package dedup implements the per-sender duplicate-delivery suppressor
// shared by both atomic broadcast stacks: a contiguous watermark plus a
// sparse set, so memory stays bounded on long runs while still catching
// out-of-order duplicates.
//
// Both engines used to carry a private copy of this structure; it moved
// here when the crash-recovery subsystem needed to rebuild the delivered
// state from a replayed write-ahead log (internal/recovery constructs a
// Map from the logged decisions and hands it back to the engine that owns
// the log).
package dedup

import "modab/internal/types"

// Set tracks the delivered sequence numbers of one sender: every seq
// <= Watermark is delivered, plus the out-of-order seqs in Sparse.
type Set struct {
	watermark uint64
	sparse    map[uint64]struct{}
}

// NewSet returns an empty per-sender set.
func NewSet() *Set {
	return &Set{sparse: make(map[uint64]struct{})}
}

// MaxSeen returns the highest sequence number marked delivered (the
// watermark or the largest sparse entry).
func (s *Set) MaxSeen() uint64 {
	max := s.watermark
	for seq := range s.sparse {
		if seq > max {
			max = seq
		}
	}
	return max
}

// Seen reports whether seq was already marked delivered.
func (s *Set) Seen(seq uint64) bool {
	if seq <= s.watermark {
		return true
	}
	_, ok := s.sparse[seq]
	return ok
}

// Mark records seq as delivered, advancing the contiguous watermark as far
// as the sparse set allows.
func (s *Set) Mark(seq uint64) {
	switch {
	case seq <= s.watermark:
		return
	case seq == s.watermark+1: // in order: no round trip through sparse
		s.watermark++
	default:
		s.sparse[seq] = struct{}{}
	}
	s.drain()
}

// drain advances the watermark over sparse entries contiguous with it.
func (s *Set) drain() {
	for len(s.sparse) > 0 {
		if _, ok := s.sparse[s.watermark+1]; !ok {
			return
		}
		delete(s.sparse, s.watermark+1)
		s.watermark++
	}
}

// Map is the whole-group delivered state: one Set per sender, created on
// first use.
type Map map[types.ProcessID]*Set

// NewMap returns an empty delivered map sized for a group of n.
func NewMap(n int) Map { return make(Map, n) }

// For returns (creating if needed) the sender's set.
func (m Map) For(sender types.ProcessID) *Set {
	s := m[sender]
	if s == nil {
		s = NewSet()
		m[sender] = s
	}
	return s
}

// Seen reports whether the message id was already marked delivered.
func (m Map) Seen(id types.MsgID) bool { return m.For(id.Sender).Seen(id.Seq) }

// Mark records the message id as delivered.
func (m Map) Mark(id types.MsgID) { m.For(id.Sender).Mark(id.Seq) }
