package pool

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"modab/internal/member"
	"modab/internal/types"
	"modab/internal/wire"
)

func msg(origin types.ProcessID, seq uint64) wire.AppMsg {
	return wire.AppMsg{ID: types.MsgID{Sender: origin, Seq: seq}, Body: []byte{byte(seq)}}
}

func view(members ...types.ProcessID) member.View { return member.View{Members: members} }

func ids(b wire.Batch) []types.MsgID {
	if len(b) == 0 {
		return nil
	}
	return b.IDs()
}

func id(origin types.ProcessID, seq uint64) types.MsgID {
	return types.MsgID{Sender: origin, Seq: seq}
}

// entries lists the pool's IDs in Each order.
func entries(p *Pool) []types.MsgID {
	var out []types.MsgID
	p.Each(func(e *Entry) { out = append(out, e.Msg.ID) })
	return out
}

func TestPool(t *testing.T) {
	all := view(0, 1, 2)
	// fill adds 2#3, 0#2, 1#1, 0#1, 2#1 (out of order, one duplicate).
	fill := func() *Pool {
		p := new(Pool)
		for _, m := range []wire.AppMsg{msg(2, 3), msg(0, 2), msg(1, 1), msg(0, 1), msg(2, 1), msg(0, 2)} {
			p.Add(m, 7)
		}
		return p
	}
	sorted := []types.MsgID{id(0, 1), id(0, 2), id(1, 1), id(2, 1), id(2, 3)}
	cases := []struct {
		name string
		do   func(p *Pool)
		k    uint64 // the instance Take proposes for
		v    member.View
		max  int
		take []types.MsgID
		left []types.MsgID // Each order after do
	}{
		{name: "order", k: 1, v: all, take: sorted, left: sorted},
		{name: "max batch", k: 1, v: all, max: 3, take: sorted[:3], left: sorted},
		{name: "member filter", k: 1, v: view(0, 2),
			take: []types.MsgID{id(0, 1), id(0, 2), id(2, 1), id(2, 3)}, left: sorted},
		{name: "assigned elsewhere excluded", k: 5, v: all,
			do:   func(p *Pool) { p.Assign(wire.Batch{msg(0, 2), msg(2, 1), msg(9, 9)}, 4) },
			take: []types.MsgID{id(0, 1), id(1, 1), id(2, 3)}, left: sorted},
		{name: "assigned to k kept", k: 4, v: all,
			do:   func(p *Pool) { p.Assign(wire.Batch{msg(0, 2)}, 4); p.Assign(wire.Batch{msg(2, 1)}, 5) },
			take: []types.MsgID{id(0, 1), id(0, 2), id(1, 1), id(2, 3)}, left: sorted},
		{name: "reassigned to the later proposal", k: 4, v: all,
			do:   func(p *Pool) { p.Assign(wire.Batch{msg(0, 2)}, 4); p.Assign(wire.Batch{msg(0, 2)}, 5) },
			take: []types.MsgID{id(0, 1), id(1, 1), id(2, 1), id(2, 3)}, left: sorted},
		{name: "release below", k: 9, v: all,
			do: func(p *Pool) {
				p.Assign(wire.Batch{msg(0, 1)}, 3)
				p.Assign(wire.Batch{msg(0, 2)}, 4)
				p.Assign(wire.Batch{msg(1, 1)}, 5)
				p.ReleaseBelow(5)
			},
			take: []types.MsgID{id(0, 1), id(0, 2), id(2, 1), id(2, 3)}, left: sorted},
		{name: "drop", k: 1, v: all,
			do:   func(p *Pool) { p.Drop(id(0, 1)); p.Drop(id(2, 3)); p.Drop(id(1, 9)); p.Drop(id(8, 1)) },
			take: []types.MsgID{id(0, 2), id(1, 1), id(2, 1)}, left: []types.MsgID{id(0, 2), id(1, 1), id(2, 1)}},
		{name: "retire", k: 1, v: all,
			do:   func(p *Pool) { p.Retire(func(m wire.AppMsg) bool { return m.ID.Sender == 2 || m.ID.Seq == 2 }) },
			take: []types.MsgID{id(0, 1), id(1, 1)}, left: []types.MsgID{id(0, 1), id(1, 1)}},
		{name: "drop assigned then add back unassigned", k: 1, v: all,
			do: func(p *Pool) {
				p.Assign(wire.Batch{msg(1, 1)}, 2)
				p.Drop(id(1, 1))
				p.Add(msg(1, 1), 7)
			},
			take: sorted, left: sorted},
		{name: "empty view", k: 1, v: view(), left: sorted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := fill()
			if tc.do != nil {
				tc.do(p)
			}
			if got := ids(p.Take(tc.k, tc.v, tc.max)); !reflect.DeepEqual(got, tc.take) {
				t.Fatalf("Take(%d) = %v, want %v", tc.k, got, tc.take)
			}
			if got := entries(p); !reflect.DeepEqual(got, tc.left) || p.Len() != len(tc.left) {
				t.Fatalf("entries = %v (Len %d), want %v", got, p.Len(), tc.left)
			}
		})
	}
}

func TestAddFirstCopyWins(t *testing.T) {
	p := new(Pool)
	first := msg(1, 1)
	if !p.Add(first, 3) {
		t.Fatal("first add not new")
	}
	second := wire.AppMsg{ID: first.ID, Body: []byte("other")}
	if p.Add(second, 9) {
		t.Fatal("second copy of an ID reported new")
	}
	w := p.Window(1)
	if len(w) != 1 || string(w[0].Msg.Body) != string(first.Body) || w[0].Mark != 3 {
		t.Fatalf("window = %+v, want the first copy with mark 3", w)
	}
	if p.Window(2) != nil {
		t.Fatal("an origin without entries has a window")
	}
}

// TestTakeByteCap: a proposal stops before the entry that would take its
// encoding past wire.MaxBatchBytes, and always carries at least one.
func TestTakeByteCap(t *testing.T) {
	body := make([]byte, wire.MaxBatchBytes*3/8) // shared: no memory per entry
	p := new(Pool)
	for seq := uint64(1); seq <= 4; seq++ {
		p.Add(wire.AppMsg{ID: id(1, seq), Body: body}, 0)
	}
	if got := ids(p.Take(1, view(1), 0)); !reflect.DeepEqual(got, []types.MsgID{id(1, 1), id(1, 2)}) {
		t.Fatalf("Take = %v, want the two entries within the byte cap", got)
	}
	huge := new(Pool)
	huge.Add(wire.AppMsg{ID: id(1, 1), Body: make([]byte, wire.MaxBatchBytes)}, 0)
	if got := huge.Take(1, view(1), 0); len(got) != 1 {
		t.Fatalf("Take of one oversized entry = %d entries, want 1", len(got))
	}
}

// TestTakeIsFresh: consensus keeps a proposal, so a later change to the
// pool must not show through it.
func TestTakeIsFresh(t *testing.T) {
	p := new(Pool)
	p.Add(msg(1, 1), 0)
	p.Add(msg(1, 2), 0)
	b := p.Take(1, view(1), 0)
	p.Drop(id(1, 1))
	p.Add(msg(1, 3), 0)
	if got := ids(b); !reflect.DeepEqual(got, []types.MsgID{id(1, 1), id(1, 2)}) {
		t.Fatalf("kept proposal changed to %v", got)
	}
}

// TestSlidingWindowAllocatesNothing: an origin whose messages are added at
// the back and ordered from the front reuses its window's array.
func TestSlidingWindowAllocatesNothing(t *testing.T) {
	msgs := make([]wire.AppMsg, 300) // built ahead: a body allocates
	for i := range msgs {
		msgs[i] = msg(1, uint64(i+1))
	}
	p := new(Pool)
	next, first := 0, 0
	for ; next < 32; next++ {
		p.Add(msgs[next], 0)
	}
	allocs := testing.AllocsPerRun(200, func() {
		p.Add(msgs[next], 0)
		next++
		p.Drop(msgs[first].ID)
		first++
	})
	if allocs > 0 || p.Len() != 32 {
		t.Fatalf("sliding window: %.1f allocations per step, Len %d; want 0, 32", allocs, p.Len())
	}
}

func TestMarkUpdates(t *testing.T) {
	p := new(Pool)
	p.Add(msg(2, 1), 1)
	p.Add(msg(1, 1), 1)
	p.Each(func(e *Entry) { e.Mark += 10 })
	w := p.Window(1)
	w[0].Mark = 42
	if got := p.Window(1)[0].Mark; got != 42 {
		t.Fatalf("window mark = %d, want 42", got)
	}
	if got := p.Window(2)[0].Mark; got != 11 {
		t.Fatalf("Each mark = %d, want 11", got)
	}
}

// model is the reference FuzzPool holds the pool to: the semantics both
// engines had before the pool, a plain map scanned and sorted on demand.
type model map[types.MsgID]*Entry

func (m model) take(k uint64, v member.View, max int) wire.Batch {
	var b wire.Batch
	for id, e := range m {
		if (e.Assigned == 0 || e.Assigned == k) && v.Contains(id.Sender) {
			b = append(b, e.Msg)
		}
	}
	b.SortDeterministic()
	if max > 0 && len(b) > max {
		b = b[:max]
	}
	return wire.CapBatchBytes(b)
}

func (m model) sorted() []types.MsgID {
	return slices.SortedFunc(maps.Keys(m), types.MsgID.Compare)
}

// FuzzPool drives the pool and the map model with the same operations and
// fails at the first answer they disagree on.
func FuzzPool(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 1, 2, 0, 2, 3, 1, 4, 0, 2, 0, 2, 3, 5, 1, 2})
	f.Add([]byte{0, 3, 200, 0, 3, 100, 0, 3, 150, 1, 1, 0, 2, 1, 3, 4, 2, 7, 1, 6, 1, 7})
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 1, 2, 0, 3, 0, 0, 1, 3, 2, 6, 0, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		p, ref := new(Pool), model{}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		msgOf := func() wire.AppMsg {
			origin, seq := types.ProcessID(next()%4), uint64(next()%32)
			return wire.AppMsg{ID: id(origin, seq), Body: []byte{byte(seq), byte(origin)}}
		}
		viewOf := func(mask byte) member.View {
			var v member.View
			for o := types.ProcessID(0); o < 4; o++ {
				if mask&(1<<o) != 0 {
					v.Members = append(v.Members, o)
				}
			}
			return v
		}
		for len(ops) > 0 {
			switch next() % 8 {
			case 0: // add
				m, mark := msgOf(), uint64(next())
				_, known := ref[m.ID]
				if !known {
					ref[m.ID] = &Entry{Msg: m, Mark: mark}
				}
				if got := p.Add(m, mark); got == known {
					t.Fatalf("Add(%v) = %v with the ID known: %v", m.ID, got, known)
				}
			case 1, 2: // take, then assign what was taken
				k, v, max := uint64(next()%6+1), viewOf(next()), int(next()%5)
				got, want := p.Take(k, v, max), ref.take(k, v, max)
				if !reflect.DeepEqual(ids(got), ids(want)) {
					t.Fatalf("Take(%d, %v, %d) = %v, want %v", k, v.Members, max, ids(got), ids(want))
				}
				p.Assign(got, k)
				for _, m := range got {
					ref[m.ID].Assigned = k
				}
			case 3: // release
				k := uint64(next() % 7)
				p.ReleaseBelow(k)
				for _, e := range ref {
					if e.Assigned != 0 && e.Assigned < k {
						e.Assigned = 0
					}
				}
			case 4: // drop
				m := msgOf()
				p.Drop(m.ID)
				delete(ref, m.ID)
			case 5: // retire one origin
				o := types.ProcessID(next() % 4)
				p.Retire(func(m wire.AppMsg) bool { return m.ID.Sender == o })
				for id := range ref {
					if id.Sender == o {
						delete(ref, id)
					}
				}
			case 6: // retire by seq parity
				odd := next()%2 == 1
				p.Retire(func(m wire.AppMsg) bool { return m.ID.Seq%2 == 1 == odd })
				for id := range ref {
					if id.Seq%2 == 1 == odd {
						delete(ref, id)
					}
				}
			case 7: // re-mark every entry
				mark := uint64(next())
				p.Each(func(e *Entry) { e.Mark = mark })
				for _, e := range ref {
					e.Mark = mark
				}
			}
			var got []Entry
			p.Each(func(e *Entry) { got = append(got, *e) })
			want := ref.sorted()
			if p.Len() != len(want) || len(got) != len(want) {
				t.Fatalf("Len %d, %d entries, want %d", p.Len(), len(got), len(want))
			}
			for i, id := range want {
				if e := ref[id]; got[i].Msg.ID != id || got[i].Assigned != e.Assigned || got[i].Mark != e.Mark {
					t.Fatalf("entry %d = %+v, want %+v", i, got[i], *e)
				}
			}
		}
	})
}

// BenchmarkTake measures the proposal path over a 256-entry backlog, as a
// stable pool (repeated attempts, the common case under flow-control
// saturation) and with one message ordered and one added between takes.
func BenchmarkTake(b *testing.B) {
	for _, slide := range []bool{false, true} {
		name := "stable"
		if slide {
			name = "sliding"
		}
		b.Run(name, func(b *testing.B) {
			p, v := new(Pool), view(0, 1, 2)
			next := uint64(1)
			for ; next <= 256; next++ {
				p.Add(msg(1, next), 0)
			}
			body := []byte{1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if slide {
					p.Drop(id(1, next-256))
					p.Add(wire.AppMsg{ID: id(1, next), Body: body}, 0)
					next++
				}
				if len(p.Take(1, v, 0)) != 256 {
					b.Fatal("bad batch")
				}
			}
		})
	}
}
