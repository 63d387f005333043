package dedup

import (
	"fmt"
	"slices"

	"modab/internal/types"
	"modab/internal/wire"
)

// Marshal appends the map in a deterministic form (senders ascending,
// sparse seqs ascending), so two replicas with identical delivered state
// produce byte-identical encodings — the property the snapshot
// equivalence checks rely on.
func (m Map) Marshal(w *wire.Writer) {
	senders := make([]types.ProcessID, 0, len(m))
	for sender := range m {
		senders = append(senders, sender)
	}
	slices.Sort(senders)
	w.Uint32(uint32(len(senders)))
	for _, sender := range senders {
		s := m[sender]
		w.Int32(int32(sender))
		w.Uint64(s.watermark)
		seqs := make([]uint64, 0, len(s.sparse))
		for seq := range s.sparse {
			seqs = append(seqs, seq)
		}
		slices.Sort(seqs)
		w.Uint32(uint32(len(seqs)))
		for _, seq := range seqs {
			w.Uint64(seq)
		}
	}
}

// MarshalBytes returns the deterministic encoding of the map.
func (m Map) MarshalBytes() []byte {
	w := wire.NewWriter(16 + 16*len(m))
	m.Marshal(w)
	return w.Bytes()
}

// UnmarshalMap decodes a map produced by Marshal.
func UnmarshalMap(data []byte) (Map, error) {
	r := wire.NewReader(data)
	nSenders := r.Uint32()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nSenders > wire.MaxChunk/16 {
		return nil, fmt.Errorf("%w: %d senders", wire.ErrTooLarge, nSenders)
	}
	m := NewMap(int(nSenders))
	for i := uint32(0); i < nSenders; i++ {
		sender := types.ProcessID(r.Int32())
		s := NewSet()
		s.watermark = r.Uint64()
		nSparse := r.Uint32()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if nSparse > wire.MaxChunk/8 {
			return nil, fmt.Errorf("%w: %d sparse seqs", wire.ErrTooLarge, nSparse)
		}
		for j := uint32(0); j < nSparse; j++ {
			seq := r.Uint64()
			if seq > s.watermark {
				s.sparse[seq] = struct{}{}
			}
		}
		m[sender] = s
	}
	r.ExpectEOF()
	if r.Err() != nil {
		return nil, r.Err()
	}
	return m, nil
}

// Merge folds other into m: afterwards m has seen everything either map
// had seen. Used when installing a snapshot whose envelope carries the
// delivered state at the snapshot boundary.
func (m Map) Merge(other Map) {
	for sender, o := range other {
		s := m.For(sender)
		if o.watermark > s.watermark {
			s.watermark = o.watermark
			for seq := range s.sparse {
				if seq <= s.watermark {
					delete(s.sparse, seq)
				}
			}
		}
		for seq := range o.sparse {
			s.Mark(seq)
		}
		s.drain() // a raised watermark may meet existing sparse entries
	}
}
