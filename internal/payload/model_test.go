package payload

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"modab/internal/types"
	"modab/internal/wire"
)

// sweepStore is the reference the Store is held to: the same contract with
// retention done the plain way, a sweep of every resident entry on each
// PruneBelow. Whatever the queue-driven Store retains after any operation
// sequence must be exactly what this retains.
type sweepStore struct {
	byID  map[types.MsgID]entry
	bytes int
}

func (r *sweepStore) put(m wire.AppMsg) {
	if _, ok := r.byID[m.ID]; !ok {
		r.byID[m.ID] = entry{msg: m}
		r.bytes += len(m.Body)
	}
}

func (r *sweepStore) drop(id types.MsgID) {
	r.bytes -= len(r.byID[id].msg.Body)
	delete(r.byID, id)
}

func (r *sweepStore) rangeOf(d wire.Descriptor) (wire.Batch, bool) {
	b := make(wire.Batch, 0, d.Count)
	for i := uint32(0); i < d.Count; i++ {
		e, ok := r.byID[types.MsgID{Sender: d.Origin, Seq: d.FirstSeq + uint64(i)}]
		if !ok {
			return nil, false
		}
		b = append(b, e.msg)
	}
	return b, true
}

func (r *sweepStore) markDelivered(d wire.Descriptor, k uint64) {
	for i := uint32(0); i < d.Count; i++ {
		id := types.MsgID{Sender: d.Origin, Seq: d.FirstSeq + uint64(i)}
		if e, ok := r.byID[id]; ok && e.deliveredAt == 0 {
			e.deliveredAt = k
			r.byID[id] = e
		}
	}
}

func (r *sweepStore) retireOrigin(origin types.ProcessID) int {
	retired := 0
	for id, e := range r.byID {
		if id.Sender == origin && e.deliveredAt == 0 {
			r.drop(id)
			retired++
		}
	}
	return retired
}

func (r *sweepStore) pruneBelow(cutoff uint64) {
	for id, e := range r.byID {
		if e.deliveredAt != 0 && e.deliveredAt <= cutoff {
			r.drop(id)
		}
	}
}

// TestStoreMatchesSweepModel drives the Store and the sweep reference
// through the same random operation sequences — fresh announces, restarted
// origins re-announcing old ranges (already delivered, already pruned, or
// regrouped so descriptors overlap), stamps landing a few instances out of
// order, RetireOrigin of half-delivered origins — and compares Len, Bytes,
// every query and the full residency after every step.
func TestStoreMatchesSweepModel(t *testing.T) {
	const (
		origins = 4
		horizon = 6
		steps   = 3000
	)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		ref := &sweepStore{byID: make(map[types.MsgID]entry)}
		next := make([]uint64, origins) // next fresh seq per origin
		for i := range next {
			next[i] = 1
		}
		k := uint64(1) // the commit watermark
		// someRange picks a descriptor over seqs the origin has used, near
		// its head or (rarely) far behind it, so ranges overlap, cover
		// pruned seqs and straddle resident and absent ones.
		someRange := func() wire.Descriptor {
			o := rng.Intn(origins)
			back := uint64(rng.Intn(12))
			if rng.Intn(10) == 0 {
				back = uint64(rng.Intn(int(next[o])))
			}
			first := uint64(1)
			if next[o] > back+1 {
				first = next[o] - back - 1
			}
			return wire.Descriptor{Origin: types.ProcessID(o), FirstSeq: first, Count: uint32(1 + rng.Intn(6))}
		}
		for step := 0; step < steps; step++ {
			var op string
			switch r := rng.Intn(20); {
			case r < 7: // a fresh batch
				o := rng.Intn(origins)
				n := 1 + rng.Intn(5)
				op = fmt.Sprintf("put fresh o=%d [%d,+%d)", o, next[o], n)
				for i := 0; i < n; i++ {
					m := wire.AppMsg{
						ID:   types.MsgID{Sender: types.ProcessID(o), Seq: next[o]},
						Body: make([]byte, rng.Intn(40)),
					}
					next[o]++
					s.Put(m)
					ref.put(m)
				}
			case r < 9: // a re-announce of seqs used before
				d := someRange()
				op = fmt.Sprintf("re-put %+v", d)
				for i := uint32(0); i < d.Count; i++ {
					m := wire.AppMsg{
						ID:   types.MsgID{Sender: d.Origin, Seq: d.FirstSeq + uint64(i)},
						Body: make([]byte, rng.Intn(40)),
					}
					s.Put(m)
					ref.put(m)
				}
			case r < 14: // a decision stamps a range, then the horizon moves
				d := someRange()
				at := k
				if rng.Intn(4) == 0 && at > 3 {
					at -= uint64(rng.Intn(3)) // pipelining: slightly out of order
				}
				op = fmt.Sprintf("deliver %+v at %d", d, at)
				s.MarkDelivered(d, at)
				ref.markDelivered(d, at)
				if k > horizon {
					s.PruneBelow(k - horizon)
					ref.pruneBelow(k - horizon)
				}
				k += uint64(rng.Intn(3))
			case r < 15:
				o := types.ProcessID(rng.Intn(origins))
				op = fmt.Sprintf("retire origin %d", o)
				if got, want := s.RetireOrigin(o), ref.retireOrigin(o); got != want {
					t.Fatalf("seed %d step %d (%s): retired %d, reference %d", seed, step, op, got, want)
				}
			default: // queries
				d := someRange()
				op = fmt.Sprintf("query %+v", d)
				got, ok := s.Range(d)
				want, wantOK := ref.rangeOf(d)
				if ok != wantOK || s.Has(d) != wantOK || (ok && !reflect.DeepEqual(got, want)) {
					t.Fatalf("seed %d step %d (%s): Range/Has = %v, reference %v", seed, step, op, ok, wantOK)
				}
			}
			if s.Len() != len(ref.byID) || s.Bytes() != ref.bytes {
				t.Fatalf("seed %d step %d (%s): Len/Bytes = %d/%d, reference %d/%d",
					seed, step, op, s.Len(), s.Bytes(), len(ref.byID), ref.bytes)
			}
			resident := 0
			for o, seqs := range s.byOrigin {
				for seq, e := range seqs {
					resident++
					if want, ok := ref.byID[types.MsgID{Sender: o, Seq: seq}]; !ok || !reflect.DeepEqual(e, want) {
						t.Fatalf("seed %d step %d (%s): %v#%d = %+v, reference %+v (resident %v)",
							seed, step, op, o, seq, e, want, ok)
					}
				}
			}
			if resident != len(ref.byID) {
				t.Fatalf("seed %d step %d (%s): %d resident, reference %d", seed, step, op, resident, len(ref.byID))
			}
			if q := s.delivered.Len(); q > len(ref.byID)+horizon*8 {
				t.Fatalf("seed %d step %d: %d queued ranges for %d resident entries", seed, step, q, len(ref.byID))
			}
		}
	}
}
