// Package ct is the Chandra–Toueg ◇S round core both atomic broadcast
// stacks order with (paper §3.2): one table of consensus instances holding
// the round rules — the estimate locking rule, coordinator quorums over the
// governing view, suspicion- and nack-driven round changes, the refusal to
// vote in decided-then-pruned instances, horizon pruning — written once.
//
// The stacks differ only in how ordering is composed around these rules
// (§4.1 piggybacked decisions, §4.2 diffusion on acks and estimates, §4.3
// implicit decision acks), so what they supply is the envelope and those
// hooks, behind Host; docs/ARCHITECTURE.md ("Round core") lists every
// answer. ct never marshals: each stack keeps its codec, whose bytes the
// netsim goldens pin. A Table is a plain single-threaded struct driven from
// its engine's event loop, like internal/head and internal/tail.
package ct

import (
	"slices"

	"modab/internal/member"
	"modab/internal/retire"
	"modab/internal/trace"
	"modab/internal/types"
	"modab/internal/wire"
)

// Host is what a Table needs from its stack. Every Send marshals before
// returning, in the stack's own encoding.
type Host interface {
	// View is the membership view governing instance k: its members form
	// every quorum and rotate as coordinators.
	View(k uint64) member.View
	// Settled reports that instance k was decided here; with its round
	// state gone it was pruned, and this process never votes in it again.
	Settled(k uint64) bool
	// Frozen holds suspicion-driven round changes on instance creation and
	// nacks (the monolithic stack, while catching up after a restart).
	Frozen() bool
	// Fresh is the value a coordinator proposes when no collected estimate
	// holds one; empty: wait for one.
	Fresh(in *Inst) wire.Batch
	// Decide hands over round r's decision b; quorum is set when this
	// process's own ack majority decided it, and not when a proposal for a
	// round already known decided arrived.
	Decide(in *Inst, b wire.Batch, r uint32, quorum bool)
	// Cutoff is the highest instance whose decided round state may go.
	Cutoff() (uint64, bool)

	SendProposal(in *Inst, r uint32, b wire.Batch)
	// ResendProposal re-sends this process's round-r proposal of in to one
	// member (ResendJoiner).
	ResendProposal(to types.ProcessID, in *Inst, r uint32)
	SendAck(to types.ProcessID, in *Inst, r uint32)
	SendNack(to types.ProcessID, k uint64, r uint32)
	SendEstimate(to types.ProcessID, in *Inst)
	// SendDecision answers an estimate for a decided instance.
	SendDecision(to types.ProcessID, in *Inst)
	// FetchDecision asks one member for instance k's decision (Want,
	// RetryFetch); the member answers through SendDecision, ServeLate or
	// ServePruned.
	FetchDecision(to types.ProcessID, k uint64)
	// ServeLate answers a proposal for a decided instance, ServePruned a
	// proposal, ack or estimate for a decided-then-pruned one.
	ServeLate(to types.ProcessID, in *Inst)
	ServePruned(to types.ProcessID, k uint64, r uint32)
}

// Inst is one consensus instance's round state.
type Inst struct {
	K uint64
	// Round is the local progression: the round whose proposal this process
	// awaits or has acknowledged. It only grows, so a round once left (and
	// nacked) is never entered again.
	Round uint32
	// Est, EstTS and HasEst are the CT locking rule's estimate: adopted from
	// each acknowledged proposal with the proposal's round as timestamp.
	Est    wire.Batch
	EstTS  uint32
	HasEst bool
	// Proposals holds received proposals per round (what a decision
	// announced for that round resolves to).
	Proposals map[uint32]wire.Batch
	// Coord holds this process's coordinator duties per round.
	Coord map[uint32]*Duty
	// Waiting is nonzero when a decision in that round is known to exist
	// but its proposal is missing here.
	Waiting       uint32
	Decided       bool
	Decision      wire.Batch
	DecisionRound uint32
}

// Duty is what this process collects as the coordinator of one round.
type Duty struct {
	Estimates map[types.ProcessID]Estimate
	Proposed  bool
	Proposal  wire.Batch
	Acks      map[types.ProcessID]bool
}

// Estimate is one estimate collected by a coordinator.
type Estimate struct {
	TS       uint32
	HasValue bool
	Batch    wire.Batch
}

// Duty returns (creating) this process's coordinator duty in round r.
func (in *Inst) Duty(r uint32) *Duty {
	d := in.Coord[r]
	if d == nil {
		if in.Coord == nil {
			in.Coord = make(map[uint32]*Duty, 1)
		}
		d = &Duty{Acks: make(map[types.ProcessID]bool)}
		in.Coord[r] = d
	}
	return d
}

// Rounds returns the rounds in which this process holds a duty, ascending.
func (in *Inst) Rounds() []uint32 {
	rounds := make([]uint32, 0, len(in.Coord))
	for r := range in.Coord {
		rounds = append(rounds, r)
	}
	slices.Sort(rounds)
	return rounds
}

// Table is one process's consensus instances.
type Table struct {
	self types.ProcessID
	h    Host
	c    *trace.Counters
	// Suspected is the failure detector's output, written by the stack.
	Suspected map[types.ProcessID]bool
	insts     map[uint64]*Inst
	// decided queues decided instances in instance order for Prune.
	decided retire.Queue[uint64]
	// wanted holds the instances known decided elsewhere whose decision is
	// missing here, each marked once it was asked in the current resend
	// period; fetchTo is the member asked last, where the retry's rotation
	// resumes. armed mirrors the host's fetch timer, and progress records a
	// decision since it was armed.
	wanted   map[uint64]bool
	fetchTo  types.ProcessID
	armed    bool
	progress bool
}

// New returns an empty table for process self. suspected (nil: a fresh
// map) is shared with whatever else in the stack reads the detector.
func New(self types.ProcessID, h Host, suspected map[types.ProcessID]bool, c *trace.Counters) *Table {
	if suspected == nil {
		suspected = make(map[types.ProcessID]bool)
	}
	return &Table{self: self, h: h, c: c, Suspected: suspected,
		insts: make(map[uint64]*Inst), wanted: make(map[uint64]bool)}
}

// Lookup returns instance k's state, nil when it does not exist.
func (t *Table) Lookup(k uint64) *Inst { return t.insts[k] }

// Len is the number of instances held.
func (t *Table) Len() int { return len(t.insts) }

// Pruned reports whether instance k was decided here and then pruned. Such
// an instance never votes again: recreated undecided, it could ack a badly
// lagging proposer into a second, conflicting majority (the two majorities
// must intersect, and every decided-then-pruned participant refusing is
// what kills the new one). An instance this process has not decided keeps
// processing: retransmitted proposals are how its gap heals.
func (t *Table) Pruned(k uint64) bool { return t.insts[k] == nil && t.h.Settled(k) }

// Coordinator is the coordinator of round r (1-based) of instance k: the
// governing view's members rotate in sorted order, which for the boot view
// {0..n-1} is the paper's (r-1) mod n.
func (t *Table) Coordinator(k uint64, r uint32) types.ProcessID {
	return t.h.View(k).Coordinator(r)
}

// Keys returns the held instance numbers ascending, so that iteration-driven
// sends are deterministic.
func (t *Table) Keys() []uint64 {
	keys := make([]uint64, 0, len(t.insts))
	for k := range t.insts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Get returns instance k, creating it in round 1 and advancing it past
// coordinators already suspected.
func (t *Table) Get(k uint64) *Inst {
	in := t.insts[k]
	if in != nil {
		return in
	}
	in = &Inst{K: k, Round: 1, Proposals: make(map[uint32]wire.Batch, 1)}
	t.insts[k] = in
	if !t.h.Frozen() {
		t.skip(in, t.rotation(k))
	}
	return in
}

// rotation is one full coordinator rotation of instance k's view.
func (t *Table) rotation(k uint64) int { return len(t.h.View(k).Members) }

// skip advances in past suspected coordinators, at most budget rounds. One
// trigger never spends more than one rotation: a process still running
// after its own removal is absent from the rotation, and once it suspects
// every member an unbounded cascade would never return. A member stops at
// its own round first, so the bound is invisible to it.
func (t *Table) skip(in *Inst, budget int) {
	for ; budget > 0 && !in.Decided && t.Suspected[t.Coordinator(in.K, in.Round)]; budget-- {
		t.advance(in)
	}
}

// Readvance re-runs the suspicion cascade over every undecided instance
// from on, ascending: after a suspicion, after catch-up, or after a view
// change reshaped the coordinator rotation.
func (t *Table) Readvance(from uint64) {
	for _, k := range t.Keys() {
		if in := t.insts[k]; k >= from && in != nil {
			t.skip(in, t.rotation(k))
		}
	}
}

// advance abandons the current round: nack it, then send the estimate to
// the next round's coordinator (the round-change path; never taken in good
// runs).
func (t *Table) advance(in *Inst) {
	r := in.Round
	if c := t.Coordinator(in.K, r); c != t.self {
		t.h.SendNack(c, in.K, r)
	}
	in.Round = r + 1
	t.c.Rounds.Add(1)
	next := t.Coordinator(in.K, in.Round)
	if next == t.self {
		t.MaybePropose(in, in.Round)
		return
	}
	t.h.SendEstimate(next, in)
}

// Propose makes this process, round r's coordinator, propose b and adopt it
// as its own estimate.
func (t *Table) Propose(in *Inst, r uint32, b wire.Batch) {
	d := in.Duty(r)
	d.Proposal = b
	d.Proposed = true
	d.Acks[t.self] = true
	in.Est, in.EstTS, in.HasEst = b, r, true
	if r > in.Round {
		in.Round = r
	}
	in.Proposals[r] = b
	t.h.SendProposal(in, r, b)
	t.CheckDecide(in, r)
}

// MaybePropose proposes for round r >= 2 once a majority of the governing
// view has sent estimates (the local one counts implicitly): the eldest
// value, ties broken in member order, or Host.Fresh when none holds one.
func (t *Table) MaybePropose(in *Inst, r uint32) {
	if in.Decided || r < 2 {
		return
	}
	d := in.Duty(r)
	if d.Proposed {
		return
	}
	v := t.h.View(in.K)
	votes := 0
	for _, p := range v.Members {
		if _, ok := d.Estimates[p]; ok || p == t.self {
			votes++ // only the governing view's members form the quorum
		}
	}
	if votes < v.Majority() {
		return
	}
	best := Estimate{TS: in.EstTS, HasValue: in.HasEst, Batch: in.Est}
	for _, p := range v.Members {
		if e, ok := d.Estimates[p]; ok && e.HasValue && (!best.HasValue || e.TS > best.TS) {
			best = e
		}
	}
	if !best.HasValue {
		if best.Batch = t.h.Fresh(in); len(best.Batch) == 0 {
			return // retried when a value arrives
		}
	}
	t.Propose(in, r, best.Batch)
}

// CheckDecide decides once a majority of the governing view (the
// coordinator included) acknowledged round r's proposal.
func (t *Table) CheckDecide(in *Inst, r uint32) {
	d := in.Duty(r)
	if in.Decided || !d.Proposed {
		return
	}
	v := t.h.View(in.K)
	acks := 0
	for _, p := range v.Members {
		if d.Acks[p] {
			acks++ // acks from outside the view never count
		}
	}
	if acks >= v.Majority() {
		t.h.Decide(in, d.Proposal, r, true)
	}
}

// Proposal handles round r's proposal b for instance k from its
// coordinator: decide it if that round is known decided, nack it if the
// round was abandoned, otherwise adopt it (the locking rule) and ack.
func (t *Table) Proposal(from types.ProcessID, k uint64, r uint32, b wire.Batch) {
	if t.Pruned(k) {
		t.h.ServePruned(from, k, r)
		return
	}
	in := t.Get(k)
	in.Proposals[r] = b
	switch {
	case in.Decided:
		t.h.ServeLate(from, in)
	case in.Waiting != 0 && r == in.Waiting:
		t.h.Decide(in, b, r, false)
	case r < in.Round:
		t.h.SendNack(from, k, r)
	default:
		in.Round = r
		in.Est, in.EstTS, in.HasEst = b, r, true
		t.h.SendAck(from, in, r)
	}
}

// Ack counts an acknowledgment of a round this process proposed.
func (t *Table) Ack(from types.ProcessID, k uint64, r uint32) {
	if t.Pruned(k) {
		t.h.ServePruned(from, k, r)
		return
	}
	in := t.Get(k)
	if in.Decided {
		return
	}
	if d := in.Duty(r); d.Proposed {
		d.Acks[from] = true
		t.CheckDecide(in, r)
	}
}

// Nack handles a nack for the current round, when this process proposed
// it. Rounds normally change on suspicion only, but a proposal lost to a
// peer's crash-recovery restart leaves an unsuspected coordinator waiting
// for a majority that cannot complete once another peer nacked the round
// away: the nack proves the round abandoned, so the coordinator re-enters
// the rotation (safe: the locking rule protects agreement across rounds).
func (t *Table) Nack(k uint64, r uint32) {
	if t.Pruned(k) {
		return // a late nack never resurrects a settled instance
	}
	in := t.Get(k)
	if in.Decided || r != in.Round || t.h.Frozen() {
		return
	}
	if d := in.Coord[r]; d == nil || !d.Proposed {
		return
	}
	// Then keep advancing past suspected coordinators, as a suspicion does:
	// stopping on a round whose coordinator is down sends the estimate into
	// a void.
	t.advance(in)
	t.skip(in, t.rotation(k)-1)
}

// Estimate collects a round-r estimate at that round's coordinator; a
// process estimating into a decided instance gets the decision instead.
func (t *Table) Estimate(from types.ProcessID, k uint64, r uint32, e Estimate) {
	if t.Pruned(k) {
		t.h.ServePruned(from, k, r)
		return
	}
	in := t.Get(k)
	if in.Decided {
		t.h.SendDecision(from, in)
		return
	}
	if t.Coordinator(k, r) != t.self || r < 2 {
		return
	}
	if d := in.Duty(r); d.Estimates == nil {
		d.Estimates = map[types.ProcessID]Estimate{from: e}
	} else {
		d.Estimates[from] = e
	}
	t.MaybePropose(in, r)
}

// Admits reports whether the view governing instance k admitted a member
// the view before it lacked.
func (t *Table) Admits(k uint64) bool {
	v := t.h.View(k)
	if v.Activation == 0 {
		return false // the boot view admits nobody
	}
	prev := t.h.View(v.Activation - 1)
	for _, m := range v.Members {
		if !prev.Contains(m) {
			return true
		}
	}
	return false
}

// ResendJoiner re-sends this process's proposals in the undecided instances
// of a view that admitted a member to every member that has not acked them,
// and reports whether any is still open: the host then re-arms the timer it
// arms behind each SendProposal for which Admits holds. A driver spawns a
// joiner only once some member applied the view admitting it, so the first
// proposals of that view went out before the joiner ran and were lost. The
// joiner's ack is then missing from the quorum, and one more silent member
// — a crash, or a peer that nacked the round on a stale suspicion — stalls
// the instance for good: nobody suspects the live coordinator, so no round
// change comes. Re-sent, the proposal reaches the joiner, which acks it, or
// nacks it if it moved on.
func (t *Table) ResendJoiner() (again bool) {
	for _, k := range t.Keys() {
		in := t.insts[k]
		if in.Decided || !t.Admits(k) {
			continue
		}
		for _, r := range in.Rounds() {
			d := in.Coord[r]
			if !d.Proposed {
				continue
			}
			again = true
			for _, m := range t.h.View(k).Members {
				if m != t.self && !d.Acks[m] {
					t.h.ResendProposal(m, in, r)
					t.c.Retransmissions.Add(1)
				}
			}
		}
	}
	return again
}

// fetchChunk bounds how many wanted instances one retry asks for: enough
// to outpace a loaded group while a cut lasts, small enough that the
// answers — each a full decision — never re-create the flood that made a
// broadcast ask per announcement collapse ring throughput.
const fetchChunk = 32

// Want handles an announcement that instance k was decided in round r (0:
// a round not known here, for an instance below an announced one). A held
// round-r proposal decides it (Host.Decide, quorum unset); otherwise k is
// wanted until it decides. A wanted instance is asked of announcer at once,
// unless announcer is Nobody — the host defers every ask to the retry — or
// k was already asked in this resend period. Want reports whether the host
// must arm its fetch timer, which then fires RetryFetch after a resend
// period: it is armed once, never re-armed while pending, since a deadline
// pushed back on every announcement would never fire.
func (t *Table) Want(announcer types.ProcessID, k uint64, r uint32) (arm bool) {
	if t.h.Settled(k) {
		return false
	}
	if r != 0 {
		in := t.Get(k)
		in.Waiting = r
		if b, ok := in.Proposals[r]; ok {
			t.h.Decide(in, b, r, false)
			return false
		}
	}
	if _, ok := t.wanted[k]; !ok {
		t.wanted[k] = false
	}
	if !t.wanted[k] && announcer != types.Nobody && announcer != t.self {
		t.fetch(announcer, k)
	}
	if t.armed {
		return false
	}
	t.armed, t.progress = true, false
	return true
}

// RetryFetch is the fetch timer's fire: it opens a new resend period and,
// unless something decided during the last one (the missing decisions are
// then most likely on their way), asks one governing member — rotating,
// skipping this process and the suspected — for the lowest fetchChunk
// wanted instances. One member, not everyone: each answer is a full
// decision, so a broadcast ask multiplies every stall's repair bytes by n.
// It reports whether the host must re-arm: while anything is wanted.
func (t *Table) RetryFetch() (again bool) {
	if len(t.wanted) == 0 {
		t.armed = false
		return false
	}
	keys := make([]uint64, 0, len(t.wanted))
	for k := range t.wanted {
		keys = append(keys, k)
		t.wanted[k] = false
	}
	slices.Sort(keys)
	if to := t.h.View(keys[0]).NextPeer(t.self, t.fetchTo, t.Suspected); !t.progress && to != types.Nobody {
		for _, k := range keys[:min(len(keys), fetchChunk)] {
			t.fetch(to, k)
		}
	}
	t.progress = false
	return true
}

// fetch asks to for instance k's decision.
func (t *Table) fetch(to types.ProcessID, k uint64) {
	t.wanted[k] = true
	t.fetchTo = to
	t.h.FetchDecision(to, k)
	t.c.Retransmissions.Add(1)
}

// Decided records in's decision and queues it for Prune.
func (t *Table) Decided(in *Inst, b wire.Batch, r uint32) {
	in.Decided, in.Decision, in.DecisionRound, in.Waiting = true, b, r, 0
	t.decided.Push(in.K, in.K)
	delete(t.wanted, in.K)
	t.progress = true
}

// Prune drops decided instances at or below Host.Cutoff; undecided ones
// are never pruned, whatever their number.
func (t *Table) Prune() {
	if cutoff, ok := t.h.Cutoff(); ok {
		for k, ok := t.decided.Pop(cutoff); ok; k, ok = t.decided.Pop(cutoff) {
			// An instance dropped by DropBelow and re-created undecided is not
			// this record's to retire.
			if in := t.insts[k]; in != nil && in.Decided {
				delete(t.insts, k)
			}
		}
	}
	trace.Raise(&t.c.InstancesRetained, len(t.insts))
}

// DropBelow drops the round state of every instance below k (a snapshot
// install settled them; Host.Settled keeps them refused).
func (t *Table) DropBelow(k uint64) {
	for j := range t.insts {
		if j < k {
			delete(t.insts, j)
		}
	}
	for j := range t.wanted {
		if j < k {
			delete(t.wanted, j)
		}
	}
}
