// Package pool is the set of unordered messages both atomic broadcast
// stacks hold while consensus orders them: the modular layer's pending set
// and the monolithic engine's pool. What a stack does with an entry —
// diffuse it, piggyback it, re-send it after a grace — is its policy; the
// set, its split across the pipeline window and its order are this package.
//
// Each origin has one window: its entries sorted by seq, unique, as in
// payload.Store. Seqs mostly arrive ascending and leave from the front, so
// an add is an append, a drop a reslice and a lookup the O(1) index
// seq − w[0].seq (a binary search when that misses). Windows are kept in
// origin order: walking them in turn is MsgID order, so a proposal is
// taken without sorting. The pool is driven from the owning engine's
// single-threaded event loop.
package pool

import (
	"cmp"
	"slices"

	"modab/internal/member"
	"modab/internal/types"
	"modab/internal/wire"
)

// Entry is one unordered message.
type Entry struct {
	Msg wire.AppMsg
	// Assigned is the in-flight instance whose proposal of this process
	// carries Msg (0: none); a proposal for another instance leaves it out,
	// so concurrent instances order disjoint slices of the pool.
	Assigned uint64
	// Mark is the owner's instance stamp: the modular layer's staleness
	// epoch, the monolithic engine's attach instance (0: never attached).
	Mark uint64
}

// window holds one origin's entries, sorted by seq, unique. e lives in
// buf: a drop at the front reslices e, leaving free room before it.
type window struct {
	origin types.ProcessID
	e, buf []Entry
}

// find returns the index of seq, or where it would be inserted.
func (w *window) find(seq uint64) (int, bool) {
	if len(w.e) > 0 && seq >= w.e[0].Msg.ID.Seq {
		if i := seq - w.e[0].Msg.ID.Seq; i < uint64(len(w.e)) && w.e[i].Msg.ID.Seq == seq {
			return int(i), true
		}
	}
	return slices.BinarySearchFunc(w.e, seq, func(e Entry, seq uint64) int { return cmp.Compare(e.Msg.ID.Seq, seq) })
}

// room makes space for one more entry: a full e slides back to the start
// of buf when that leaves buf at most half used, and moves to a larger buf
// otherwise. A window sliding at a steady rate then allocates nothing.
func (w *window) room() {
	if len(w.e) < cap(w.e) {
		return
	}
	if 2*len(w.e) >= cap(w.buf) {
		w.buf = make([]Entry, 2*len(w.e)+4)
	}
	n := copy(w.buf, w.e)
	clear(w.buf[n:])
	w.e = w.buf[:n]
}

// Pool is the unordered-message set of one engine. The zero value is an
// empty pool.
type Pool struct {
	wins []*window  // sorted by origin
	n    int        // entries
	take wire.Batch // Take's scratch
}

// Len returns the number of entries.
func (p *Pool) Len() int { return p.n }

// window returns origin's window, creating it when add is set.
func (p *Pool) window(origin types.ProcessID, add bool) *window {
	i, ok := slices.BinarySearchFunc(p.wins, origin, func(w *window, o types.ProcessID) int { return cmp.Compare(w.origin, o) })
	if !ok && !add {
		return nil
	}
	if !ok {
		p.wins = slices.Insert(p.wins, i, &window{origin: origin})
	}
	return p.wins[i]
}

// Add inserts m, unassigned, with the given mark, and reports whether it
// was new: the first copy of an ID wins.
func (p *Pool) Add(m wire.AppMsg, mark uint64) bool {
	w := p.window(m.ID.Sender, true)
	i, found := len(w.e), false
	if i > 0 && m.ID.Seq <= w.e[i-1].Msg.ID.Seq {
		i, found = w.find(m.ID.Seq)
	}
	if found {
		return false
	}
	w.room()
	w.e = slices.Insert(w.e, i, Entry{Msg: m, Mark: mark})
	p.n++
	return true
}

// Take returns the batch proposable for instance k: the entries not
// carried by a proposal for another instance, of origins in view v, in
// MsgID order, at most max of them (0: no cap) and within
// wire.MaxBatchBytes. The batch is a fresh slice: consensus keeps it.
func (p *Pool) Take(k uint64, v member.View, max int) wire.Batch {
	b := p.take[:0]
	for _, w := range p.wins {
		if v.Contains(w.origin) {
			for i := range w.e {
				if a := w.e[i].Assigned; a == 0 || a == k {
					b = append(b, w.e[i].Msg)
				}
			}
		}
	}
	p.take = b
	defer clear(b) // unpin the bodies
	if max > 0 && len(b) > max {
		b = b[:max]
	}
	if len(b) == 0 {
		return nil
	}
	return slices.Clone(wire.CapBatchBytes(b))
}

// Assign marks every entry of b as carried by the proposal for instance k
// (messages the pool does not hold are skipped).
func (p *Pool) Assign(b wire.Batch, k uint64) {
	for _, m := range b {
		if w := p.window(m.ID.Sender, false); w != nil {
			if i, ok := w.find(m.ID.Seq); ok {
				w.e[i].Assigned = k
			}
		}
	}
}

// ReleaseBelow makes the entries carried by proposals for instances below
// k proposable again: those instances are decided (or covered by a
// snapshot), and what they did not order waits for a later one.
func (p *Pool) ReleaseBelow(k uint64) {
	p.Each(func(e *Entry) {
		if e.Assigned < k {
			e.Assigned = 0
		}
	})
}

// Drop removes id's entry, if any.
func (p *Pool) Drop(id types.MsgID) {
	w := p.window(id.Sender, false)
	if w == nil {
		return
	}
	if i, ok := w.find(id.Seq); ok {
		p.n--
		if i == 0 {
			w.e[0] = Entry{} // unpin the body
			w.e = w.e[1:]
		} else {
			w.e = slices.Delete(w.e, i, i+1)
		}
	}
}

// Retire removes every entry for which obsolete, called once on its
// message, is true.
func (p *Pool) Retire(obsolete func(m wire.AppMsg) bool) {
	for _, w := range p.wins {
		n := len(w.e)
		w.e = slices.DeleteFunc(w.e, func(e Entry) bool { return obsolete(e.Msg) })
		p.n -= n - len(w.e)
	}
}

// Each calls f on every entry in MsgID order. f may change the entry's
// Mark, and must not add to or drop from the pool.
func (p *Pool) Each(f func(e *Entry)) {
	for _, w := range p.wins {
		for i := range w.e {
			f(&w.e[i])
		}
	}
}

// Window returns origin's entries in seq order (nil when it has none). The
// caller may change their Mark, and nothing else.
func (p *Pool) Window(origin types.ProcessID) []Entry {
	if w := p.window(origin, false); w != nil {
		return w.e
	}
	return nil
}
