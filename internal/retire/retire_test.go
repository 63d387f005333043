package retire

import (
	"math/rand"
	"sort"
	"testing"
)

func TestQueuePopsInInstanceOrder(t *testing.T) {
	var q Queue[string]
	q.Push(3, "c")
	q.Push(5, "e")
	q.Push(4, "d") // lands one slot late, as a pipelined decision does
	q.Push(1, "a") // a straggler far behind goes to the front
	if _, ok := q.Pop(0); ok {
		t.Fatal("popped a record above the cutoff")
	}
	var got []string
	for v, ok := q.Pop(4); ok; v, ok = q.Pop(4) {
		got = append(got, v)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "c" || got[2] != "d" {
		t.Fatalf("Pop(4) sequence = %v, want [a c d]", got)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	if v, ok := q.Pop(5); !ok || v != "e" {
		t.Fatalf("Pop(5) = %q, %v", v, ok)
	}
	if _, ok := q.Pop(^uint64(0)); ok {
		t.Fatal("popped from an empty queue")
	}
}

// TestQueueMatchesSort drives random near-monotone pushes and rising
// cutoffs, and checks every popped prefix against a sorted reference.
func TestQueueMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[uint64]
	var ref []uint64
	for step, k := 0, uint64(10); step < 5000; step++ {
		k += uint64(rng.Intn(3))
		at := k - uint64(rng.Intn(8)) // up to a window's worth out of order
		q.Push(at, at)
		ref = append(ref, at)
		if rng.Intn(4) != 0 {
			continue
		}
		cutoff := k - uint64(rng.Intn(12))
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		n := sort.Search(len(ref), func(i int) bool { return ref[i] > cutoff })
		for i := 0; i < n; i++ {
			if v, ok := q.Pop(cutoff); !ok || v != ref[i] {
				t.Fatalf("step %d: pop %d = %d, %v; want %d", step, i, v, ok, ref[i])
			}
		}
		if v, ok := q.Pop(cutoff); ok {
			t.Fatalf("step %d: popped %d above cutoff %d", step, v, cutoff)
		}
		ref = ref[n:]
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
	}
}

// TestQueueBackingStaysBounded pins the memory claim of Pop's comment: a
// long-running queue of steady length does not grow its backing array.
func TestQueueBackingStaysBounded(t *testing.T) {
	var q Queue[uint64]
	const live = 128
	for k := uint64(1); k <= 100_000; k++ {
		q.Push(k, k)
		if k > live {
			q.Pop(k - live)
		}
		if cap(q.recs) > 4*live {
			t.Fatalf("at %d: cap %d for %d live records", k, cap(q.recs), q.Len())
		}
	}
}
