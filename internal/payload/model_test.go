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

// checkResidency compares the store's full residency with the reference
// and checks the window invariant: each origin's entries sorted by seq,
// without duplicates.
func checkResidency(s *Store, ref *sweepStore) error {
	if s.Len() != len(ref.byID) || s.Bytes() != ref.bytes {
		return fmt.Errorf("Len/Bytes = %d/%d, reference %d/%d", s.Len(), s.Bytes(), len(ref.byID), ref.bytes)
	}
	resident := 0
	for o, w := range s.byOrigin {
		for i, e := range w.e {
			resident++
			if i > 0 && w.e[i-1].seq() >= e.seq() {
				return fmt.Errorf("origin %v window out of order at %d: %d then %d", o, i, w.e[i-1].seq(), e.seq())
			}
			if want, ok := ref.byID[types.MsgID{Sender: o, Seq: e.seq()}]; !ok || !reflect.DeepEqual(e, want) {
				return fmt.Errorf("%v#%d = %+v, reference %+v (resident %v)", o, e.seq(), e, want, ok)
			}
		}
	}
	if resident != len(ref.byID) {
		return fmt.Errorf("%d resident, reference %d", resident, len(ref.byID))
	}
	return nil
}

// TestStoreMatchesSweepModel drives the Store and the sweep reference
// through the same random operation sequences — fresh announces, restarted
// origins re-announcing old ranges (already delivered, already pruned, or
// regrouped so descriptors overlap), restart-style jumps of an origin's
// sequence numbers, a joiner whose first seq is far above 0, out-of-order
// puts and puts below an origin's resident window, payload-response
// refills of ranges already pruned, stamps landing a few instances out of
// order, RetireOrigin of half-delivered origins — and compares Len, Bytes,
// every query and the full residency after every step.
func TestStoreMatchesSweepModel(t *testing.T) {
	const (
		origins = 4
		horizon = 6
		steps   = 3000
	)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		ref := &sweepStore{byID: make(map[types.MsgID]entry)}
		next := make([]uint64, origins) // next fresh seq per origin
		for i := range next {
			next[i] = 1
		}
		next[origins-1] = 1 << 40  // a joiner: its first seq is far above 0
		var past []wire.Descriptor // every range put so far, for refills
		k := uint64(1)             // the commit watermark
		put := func(o types.ProcessID, seqs ...uint64) {
			b := make(wire.Batch, 0, len(seqs))
			for _, seq := range seqs {
				b = append(b, wire.AppMsg{ID: types.MsgID{Sender: o, Seq: seq}, Body: make([]byte, rng.Intn(40))})
				ref.put(b[len(b)-1])
			}
			s.PutBatch(b)
		}
		// someRange picks a descriptor over seqs the origin has used, near
		// its head or (rarely) far behind it, so ranges overlap, cover
		// pruned seqs and straddle resident and absent ones.
		someRange := func() wire.Descriptor {
			o := rng.Intn(origins)
			back := uint64(rng.Intn(12))
			if rng.Intn(10) == 0 {
				back = uint64(rng.Int63n(int64(next[o])))
			}
			first := uint64(1)
			if next[o] > back+1 {
				first = next[o] - back - 1
			}
			return wire.Descriptor{Origin: types.ProcessID(o), FirstSeq: first, Count: uint32(1 + rng.Intn(6))}
		}
		for step := 0; step < steps; step++ {
			var op string
			switch r := rng.Intn(24); {
			case r < 7: // a fresh batch
				o := rng.Intn(origins)
				n := 1 + rng.Intn(5)
				op = fmt.Sprintf("put fresh o=%d [%d,+%d)", o, next[o], n)
				d := wire.Descriptor{Origin: types.ProcessID(o), FirstSeq: next[o], Count: uint32(n)}
				for i := 0; i < n; i++ {
					put(d.Origin, next[o])
					next[o]++
				}
				past = append(past, d)
			case r < 9: // a re-announce of seqs used before
				d := someRange()
				op = fmt.Sprintf("re-put %+v", d)
				for i := uint32(0); i < d.Count; i++ {
					put(d.Origin, d.FirstSeq+uint64(i))
				}
			case r < 10: // a restarted origin resumes far above its old seqs
				o := rng.Intn(origins)
				next[o] += 1 << (20 + rng.Intn(21))
				op = fmt.Sprintf("jump o=%d to %d", o, next[o])
			case r < 11: // an out-of-order batch, reaching below the window
				o := rng.Intn(origins)
				n := 1 + rng.Intn(5)
				seqs := make([]uint64, n)
				for i := range seqs {
					seqs[i] = next[o] - 1 - uint64(rng.Int63n(int64(min(next[o]-1, 40))+1))
				}
				op = fmt.Sprintf("put out of order o=%d %v", o, seqs)
				put(types.ProcessID(o), seqs...)
			case r < 12 && len(past) > 0: // a payload response refills an old range
				d := past[rng.Intn(len(past))]
				op = fmt.Sprintf("refill %+v", d)
				for i := uint32(0); i < d.Count; i++ {
					put(d.Origin, d.FirstSeq+uint64(i))
				}
			case r < 17: // a decision stamps a range, then the horizon moves
				d := someRange()
				if rng.Intn(3) == 0 && len(past) > 0 {
					d = past[rng.Intn(len(past))]
				}
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
			case r < 18:
				o := types.ProcessID(rng.Intn(origins))
				op = fmt.Sprintf("retire origin %d", o)
				if got, want := s.RetireOrigin(o), ref.retireOrigin(o); got != want {
					t.Fatalf("seed %d step %d (%s): retired %d, reference %d", seed, step, op, got, want)
				}
			default: // queries
				d := someRange()
				if rng.Intn(3) == 0 && len(past) > 0 {
					d = past[rng.Intn(len(past))]
				}
				op = fmt.Sprintf("query %+v", d)
				got, ok := s.Range(d)
				want, wantOK := ref.rangeOf(d)
				if ok != wantOK || s.Has(d) != wantOK || (ok && !reflect.DeepEqual(got, want)) {
					t.Fatalf("seed %d step %d (%s): Range/Has = %v, reference %v", seed, step, op, ok, wantOK)
				}
			}
			if err := checkResidency(s, ref); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
			}
			if q := s.delivered.Len(); q > len(ref.byID)+horizon*8 {
				t.Fatalf("seed %d step %d: %d queued ranges for %d resident entries", seed, step, q, len(ref.byID))
			}
		}
	}
}

// FuzzPayloadStore is the differential form of TestStoreMatchesSweepModel:
// the fuzzer writes the operation sequence. Each four-byte group is one
// operation — put, mark delivered (pruning behind a horizon of 4), retire
// or query — over origin b[1]%3 and the range at b[2] of count b[3]%8+1;
// b[0]'s high bit lifts the range above 2^40, so sequence numbers jump the
// way a restarted origin's or a joiner's do. After every operation the
// store must answer and hold exactly what the sweep reference does.
func FuzzPayloadStore(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 1, 0, 1, 3, 3, 0, 1, 3})
	f.Add([]byte{0, 1, 5, 2, 0, 1, 1, 7, 1, 1, 3, 2, 0x80, 1, 0, 1, 2, 1, 0, 0, 3, 1, 0, 7})
	f.Add([]byte{0, 2, 9, 1, 0, 2, 3, 1, 0, 2, 6, 1, 1, 2, 3, 7, 1, 2, 0, 0, 0, 2, 0, 7, 3, 2, 0, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewStore()
		ref := &sweepStore{byID: make(map[types.MsgID]entry)}
		k := uint64(1)
		for i := 0; i+4 <= len(ops); i += 4 {
			op := ops[i : i+4]
			d := wire.Descriptor{Origin: types.ProcessID(op[1] % 3), FirstSeq: uint64(op[2]), Count: uint32(op[3]%8) + 1}
			if op[0]&0x80 != 0 {
				d.FirstSeq += 1 << 40
			}
			switch op[0] & 0x7f % 4 {
			case 0:
				b := make(wire.Batch, d.Count)
				for j := range b {
					b[j] = wire.AppMsg{ID: types.MsgID{Sender: d.Origin, Seq: d.FirstSeq + uint64(j)}, Body: make([]byte, (int(op[2])+j)%5)}
					ref.put(b[j])
				}
				s.PutBatch(b)
			case 1:
				s.MarkDelivered(d, k)
				ref.markDelivered(d, k)
				if k > 4 {
					s.PruneBelow(k - 4)
					ref.pruneBelow(k - 4)
				}
				k++
			case 2:
				if got, want := s.RetireOrigin(d.Origin), ref.retireOrigin(d.Origin); got != want {
					t.Fatalf("op %d: retired %d, reference %d", i/4, got, want)
				}
			case 3:
				got, ok := s.Range(d)
				want, wantOK := ref.rangeOf(d)
				if ok != wantOK || s.Has(d) != wantOK || (ok && !reflect.DeepEqual(got, want)) {
					t.Fatalf("op %d: Range/Has(%+v) = %v, reference %v", i/4, d, ok, wantOK)
				}
			}
			if err := checkResidency(s, ref); err != nil {
				t.Fatalf("op %d (%v): %v", i/4, op, err)
			}
		}
	})
}
