package main

import (
	"bytes"
	"fmt"

	"modab"
)

// checker verifies that what the processes adelivered is a correct atomic
// broadcast of what the generator submitted. The collector feeds it every
// delivery event in per-process order; verify runs after the drain, before
// any number is printed.
//
// Order is compared through one rolling hash per process over the MsgIDs it
// delivered: equal counts and equal hashes mean equal sequences. Integrity
// (no duplicate, no gap) is a bitset per (process, sender).
type checker struct {
	procs []procLog
	// keepLog also records every process's full delivery sequence: a
	// restarted process may legitimately skip messages (those a peer's
	// snapshot covered), so its order is checked as a subsequence instead.
	keepLog bool
}

type procLog struct {
	count int64
	hash  uint64
	bytes int64
	seen  []seqSet // indexed by sender
	dups  int64
	log   []modab.MsgID
}

// seqSet is a growable bitset over a sender's sequence numbers (1-based).
type seqSet struct {
	bits []uint64
	max  uint64
	n    uint64
}

// add marks seq and reports whether it was already present.
func (s *seqSet) add(seq uint64) (dup bool) {
	w := seq >> 6
	for uint64(len(s.bits)) <= w {
		s.bits = append(s.bits, make([]uint64, len(s.bits)+64)...)
	}
	m := uint64(1) << (seq & 63)
	if s.bits[w]&m != 0 {
		return true
	}
	s.bits[w] |= m
	s.n++
	if seq > s.max {
		s.max = seq
	}
	return false
}

func newChecker(n int, keepLog bool) *checker {
	c := &checker{procs: make([]procLog, n), keepLog: keepLog}
	for i := range c.procs {
		c.procs[i].seen = make([]seqSet, n)
	}
	return c
}

// observe records one adelivery at process p.
func (c *checker) observe(p int, id modab.MsgID, bodyLen int) {
	l := &c.procs[p]
	l.count++
	l.bytes += int64(bodyLen)
	// FNV-style, order-sensitive: h' = (h ^ id) * prime.
	l.hash = (l.hash ^ (uint64(uint32(id.Sender))<<48 ^ id.Seq)) * 1099511628211
	if int(id.Sender) >= len(l.seen) || l.seen[id.Sender].add(id.Seq) {
		l.dups++
	}
	if c.keepLog {
		l.log = append(l.log, id)
	}
}

// expectation is what verify holds the deliveries against.
type expectation struct {
	// submitted[s] is the number of ops accepted at sender s.
	submitted []int64
	// delivered[p] is process p's ADeliver counter (not checked for a
	// restarted process, whose counters restart with it).
	delivered []int64
	// digests[p] is process p's Applier.StateDigest (nil entries are
	// skipped; all nil on workloads without a state machine).
	digests [][]byte
	// restarted[p] marks a process that crashed and recovered (nil = none).
	restarted []bool
}

// verify returns nil when the run was a correct atomic broadcast.
func (c *checker) verify(e expectation) error {
	var total int64
	for _, k := range e.submitted {
		total += k
	}
	refP := 0
	for e.restarted != nil && refP < len(c.procs)-1 && e.restarted[refP] {
		refP++
	}
	ref := &c.procs[refP]
	for p := range c.procs {
		l := &c.procs[p]
		if l.dups > 0 {
			return fmt.Errorf("process %d adelivered %d duplicate or foreign messages", p, l.dups)
		}
		if e.restarted != nil && e.restarted[p] {
			// Completeness of a restarted replica is shown by its state
			// digest below; its deliveries must still respect the order.
			if !c.keepLog {
				return fmt.Errorf("process %d restarted but no delivery log was kept", p)
			}
			if at := subsequence(l.log, ref.log); at >= 0 {
				return fmt.Errorf("restarted process %d adelivered %v out of process %d's order", p, l.log[at], refP)
			}
			continue
		}
		for s := range l.seen {
			set := &l.seen[s]
			if set.n != set.max {
				return fmt.Errorf("process %d has a gap in sender %d's messages: %d delivered, highest seq %d", p, s, set.n, set.max)
			}
			if int64(set.n) != e.submitted[s] {
				return fmt.Errorf("process %d adelivered %d of sender %d's %d submitted messages", p, set.n, s, e.submitted[s])
			}
		}
		if l.count != ref.count || l.hash != ref.hash {
			return fmt.Errorf("process %d's delivery order differs from process %d's (count %d vs %d, hash %x vs %x)", p, refP, l.count, ref.count, l.hash, ref.hash)
		}
		if l.bytes != ref.bytes {
			return fmt.Errorf("process %d adelivered %d body bytes, process %d %d", p, l.bytes, refP, ref.bytes)
		}
		if e.delivered != nil && e.delivered[p] != total {
			return fmt.Errorf("process %d's counters report %d adeliveries for %d submitted ops", p, e.delivered[p], total)
		}
	}
	var first []byte
	for p, d := range e.digests {
		if d == nil {
			continue
		}
		if first == nil {
			first = d
		} else if !bytes.Equal(first, d) {
			return fmt.Errorf("process %d's state digest differs from the other replicas'", p)
		}
	}
	return nil
}

// subsequence returns -1 when sub's elements appear in full in the same
// relative order, else the index in sub of the first element that does not.
func subsequence(sub, full []modab.MsgID) int {
	j := 0
	for i, id := range sub {
		for j < len(full) && full[j] != id {
			j++
		}
		if j == len(full) {
			return i
		}
		j++
	}
	return -1
}
