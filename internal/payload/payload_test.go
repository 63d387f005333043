package payload

import (
	"testing"

	"modab/internal/types"
	"modab/internal/wire"
)

func msg(origin types.ProcessID, seq uint64, body string) wire.AppMsg {
	return wire.AppMsg{ID: types.MsgID{Sender: origin, Seq: seq}, Body: []byte(body)}
}

// one is the one-message descriptor of (origin, seq).
func one(origin types.ProcessID, seq uint64) wire.Descriptor {
	return wire.Descriptor{Origin: origin, FirstSeq: seq, Count: 1}
}

func contiguous(origin types.ProcessID, first uint64, n int) wire.Batch {
	b := make(wire.Batch, 0, n)
	for i := 0; i < n; i++ {
		b = append(b, msg(origin, first+uint64(i), "x"))
	}
	return b
}

func TestStoreRangeResolvesDescriptor(t *testing.T) {
	s := NewStore()
	b := contiguous(1, 10, 5)
	d, err := wire.DescriptorFor(b, 77)
	if err != nil {
		t.Fatalf("DescriptorFor: %v", err)
	}
	if s.Has(d) {
		t.Fatal("empty store claims residency")
	}
	s.PutBatch(b)
	if !s.Has(d) {
		t.Fatal("full range not resident after PutBatch")
	}
	got, ok := s.Range(d)
	if !ok || len(got) != 5 {
		t.Fatalf("Range: ok=%v len=%d", ok, len(got))
	}
	if err := d.Validate(got); err != nil {
		t.Fatalf("resolved batch does not validate: %v", err)
	}
	if s.Len() != 5 || s.Bytes() != 5 {
		t.Fatalf("Len=%d Bytes=%d, want 5/5", s.Len(), s.Bytes())
	}
}

func TestStoreRangeMissingMessage(t *testing.T) {
	s := NewStore()
	b := contiguous(2, 1, 4)
	d, _ := wire.DescriptorFor(b, 1)
	for i, m := range b {
		if i == 2 {
			continue // hole
		}
		s.PutBatch(wire.Batch{m})
	}
	if s.Has(d) {
		t.Fatal("store with a hole claims residency")
	}
	if _, ok := s.Range(d); ok {
		t.Fatal("Range resolved across a hole")
	}
}

func TestStorePutIdempotent(t *testing.T) {
	s := NewStore()
	m := msg(0, 1, "abc")
	s.PutBatch(wire.Batch{m})
	s.PutBatch(wire.Batch{msg(0, 1, "different")})
	got, _ := s.Range(one(0, 1))
	if string(got[0].Body) != "abc" {
		t.Fatalf("second Put overwrote body: %q", got[0].Body)
	}
	if s.Len() != 1 || s.Bytes() != 3 {
		t.Fatalf("Len=%d Bytes=%d after duplicate Put", s.Len(), s.Bytes())
	}
}

func TestStoreRetention(t *testing.T) {
	s := NewStore()
	b1 := contiguous(1, 0, 3)
	b2 := contiguous(1, 3, 3)
	d1, _ := wire.DescriptorFor(b1, 1)
	d2, _ := wire.DescriptorFor(b2, 2)
	s.PutBatch(b1)
	s.PutBatch(b2)
	s.MarkDelivered(d1, 5)
	// Undelivered and above-cutoff entries survive.
	s.PruneBelow(4)
	if !s.Has(d1) || !s.Has(d2) {
		t.Fatal("prune below delivery instance dropped entries")
	}
	// At the cutoff the delivered range goes; the undelivered one stays
	// (it is bounded by flow control, not the horizon).
	s.PruneBelow(5)
	if s.Has(d1) {
		t.Fatal("delivered range survived its horizon")
	}
	if !s.Has(d2) {
		t.Fatal("undelivered range was pruned")
	}
	if s.Len() != 3 {
		t.Fatalf("Len=%d after prune, want 3", s.Len())
	}
}

func TestStoreOverlappingDescriptorsAfterRestart(t *testing.T) {
	// A restarted origin re-announces its backlog under fresh descriptor
	// boundaries: ranges may partially overlap an old descriptor. Both
	// must resolve, and delivery stamps must not double-apply.
	s := NewStore()
	old := contiguous(3, 1, 10) // [1,11)
	s.PutBatch(old)
	dOld, _ := wire.DescriptorFor(old, 1)
	reAnnounced := contiguous(3, 1, 20) // [1,21) regrouped after restart
	dNew, _ := wire.DescriptorFor(reAnnounced, (1<<48)|1)
	s.PutBatch(reAnnounced)
	if !s.Has(dOld) || !s.Has(dNew) {
		t.Fatal("overlapping ranges not both resident")
	}
	s.MarkDelivered(dOld, 7)
	s.MarkDelivered(dNew, 9) // seqs 1-10 keep their earlier stamp
	s.PruneBelow(7)
	if s.Has(dNew) {
		t.Fatal("overlap prefix should be pruned at the old stamp")
	}
	if !s.Has(one(3, 11)) {
		t.Fatal("suffix delivered at 9 pruned at cutoff 7")
	}
	s.PruneBelow(9)
	if s.Len() != 0 {
		t.Fatalf("Len=%d after full prune", s.Len())
	}
}

// TestRetireOrigin is the satellite-3 leak regression: a removed
// origin's undelivered announced batches must be dropped at the remove
// boundary, while its delivered entries stay on normal horizon
// retention, and other origins are untouched.
func TestRetireOrigin(t *testing.T) {
	s := NewStore()
	// Origin 1: 3 delivered + 4 undelivered messages.
	del := contiguous(1, 1, 3)
	s.PutBatch(del)
	d1, _ := wire.DescriptorFor(del, 9)
	s.MarkDelivered(d1, 9)
	s.PutBatch(contiguous(1, 4, 4))
	// Origin 2: 2 undelivered messages — must survive.
	s.PutBatch(contiguous(2, 1, 2))

	base := s.Len()
	if base != 9 {
		t.Fatalf("setup Len=%d, want 9", base)
	}
	if got := s.RetireOrigin(1); got != 4 {
		t.Fatalf("RetireOrigin retired %d, want 4", got)
	}
	if s.Len() != 5 || s.Bytes() != 5 {
		t.Fatalf("after retire Len=%d Bytes=%d, want 5/5", s.Len(), s.Bytes())
	}
	// Delivered entries still resident (serve payload-fetch repair)...
	if !s.Has(one(1, 2)) {
		t.Fatal("delivered entry of retired origin was dropped")
	}
	// ...until the horizon prunes them as usual.
	s.PruneBelow(9)
	if s.Len() != 2 {
		t.Fatalf("after prune Len=%d, want 2 (origin 2 only)", s.Len())
	}
	if !s.Has(one(2, 1)) {
		t.Fatal("unrelated origin lost an entry")
	}
	// Retiring an origin with no state is a no-op.
	if got := s.RetireOrigin(7); got != 0 {
		t.Fatalf("RetireOrigin(empty) = %d, want 0", got)
	}
}

// TestStoreSparseSeqsStayBounded: sequence numbers far apart cost one
// entry each, not a slot per seq in between.
func TestStoreSparseSeqsStayBounded(t *testing.T) {
	s := NewStore()
	for _, seq := range []uint64{1 << 41, 1, 1 << 40} {
		s.PutBatch(wire.Batch{msg(4, seq, "x")})
	}
	w := s.byOrigin[4]
	if s.Len() != 3 || len(w.e) != 3 || cap(w.e) > 4 {
		t.Fatalf("Len=%d window len/cap=%d/%d, want 3 entries resident", s.Len(), len(w.e), cap(w.e))
	}
	for _, seq := range []uint64{1, 1 << 40, 1 << 41} {
		if !s.Has(one(4, seq)) {
			t.Fatalf("seq %d not resident", seq)
		}
	}
	if s.Has(one(4, 2)) || s.Has(wire.Descriptor{Origin: 4, FirstSeq: 1 << 40, Count: 2}) {
		t.Fatal("a seq between the live ones claims residency")
	}
}

// TestStoreAllocs is the steady-state ratchet: a delivery cycle of
// PutBatch, MarkDelivered and PruneBelow allocates at most once on
// average (amortized window and retirement-queue growth), and Range
// allocates only the batch it returns.
func TestStoreAllocs(t *testing.T) {
	const horizon = 4
	s := NewStore()
	b := contiguous(1, 1, 32)
	next, k := uint64(1), uint64(1)
	cycle := func() {
		for i := range b {
			b[i].ID.Seq = next + uint64(i)
		}
		s.PutBatch(b)
		s.MarkDelivered(wire.Descriptor{Origin: 1, FirstSeq: next, Count: uint32(len(b))}, k)
		if k > horizon {
			s.PruneBelow(k - horizon)
		}
		next += uint64(len(b))
		k++
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs > 1 {
		t.Fatalf("a PutBatch/MarkDelivered/PruneBelow cycle made %.2f allocations, want at most 1", allocs)
	}
	if s.Len() != horizon*len(b) {
		t.Fatalf("Len=%d, want %d resident within the horizon", s.Len(), horizon*len(b))
	}
	d := wire.Descriptor{Origin: 1, FirstSeq: next - 32, Count: 32}
	if allocs := testing.AllocsPerRun(100, func() { s.Range(d) }); allocs != 1 {
		t.Fatalf("Range made %.0f allocations, want 1", allocs)
	}
}
