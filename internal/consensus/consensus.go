// Package consensus implements the optimized Chandra–Toueg ◇S consensus
// microprotocol of the modular stack (paper §3.2).
//
// The algorithm proceeds in asynchronous rounds; the coordinator of round
// r is process (r-1) mod n. The paper's optimizations (from Urbán '03) are
// all implemented:
//
//   - the estimate phase of round 1 is suppressed: the round-1 coordinator
//     proposes its own initial value directly;
//   - a new round starts only when the current round's coordinator is
//     suspected by the local failure detector (instead of rounds free-running);
//   - decisions are disseminated through reliable broadcast as a small
//     DECISION tag; receivers decide the proposal they already hold for
//     that round, and fetch the full decision only if they miss it.
//
// The layer manages many consensus instances (one per atomic broadcast
// batch) but exposes each as an independent black box: nothing about
// instance k is reused for instance k+1. That independence is precisely
// the modularity cost the paper measures; the monolithic engine removes it.
// It is also what makes the abcast layer's pipelining
// (engine.Config.PipelineDepth) transparent here: W concurrent EvProposeReq
// instances run their rounds, suspicion-driven round advancement and
// decision dissemination fully independently, and retention (prune) only
// ever drops decided instances, so an in-flight window can never lose
// state to GC.
package consensus

import (
	"fmt"
	"sort"
	"time"

	"modab/internal/dedup"
	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/retire"
	"modab/internal/stack"
	"modab/internal/trace"
	"modab/internal/types"
	"modab/internal/wire"
)

// timerResend is the layer-local timer driving decision-fetch retries.
const timerResend engine.TimerID = 1

// Layer is the consensus microprotocol. It accepts stack.EvProposeReq
// events, emits stack.EvDecide events to the subscriber layer, and sends
// its decisions through the reliable broadcast layer.
type Layer struct {
	ctx        *stack.Context
	subscriber stack.Tag
	resend     time.Duration
	horizon    int

	self types.ProcessID
	// views is the ascending-activation sequence of membership views
	// this layer has been told about (stack.EvConfig from the abcast
	// layer, which processes decisions in total order). Every quorum
	// comparison and coordinator lookup for instance k goes through
	// viewAt(k) — never through a majority cached at construction, which
	// is exactly the stale-quorum bug dynamic membership exposes: a
	// decided remove from n=5 to 4 must shrink the quorum on the very
	// next governed instance.
	views      []member.View
	insts      map[uint64]*instance
	suspected  map[types.ProcessID]bool
	maxDecided uint64
	// decidedQ holds the decided instances still in insts, in instance
	// order (decisions land slightly out of it under pipelining): what
	// prune retires from. Undecided instances are never in it.
	decidedQ retire.Queue[uint64]
	// decidedSet records every instance this process ever decided
	// (contiguous watermark plus sparse set, so memory stays bounded once
	// decisions become contiguous). It outlives pruning: a vote-producing
	// message (proposal, estimate, ack) for an instance this process
	// decided and then pruned must be ignored — recreating the instance
	// as undecided and voting again could hand a badly lagging proposer a
	// majority for a second, conflicting decision (the original and the
	// new majority must intersect, and with every decided-then-pruned
	// participant refusing, the intersection kills the new one).
	// Instances this process has NOT decided — its own undecided gap
	// during a partition, whether or not the instance state exists yet —
	// keep processing normally; retransmitted proposals are how the gap
	// heals.
	decidedSet *dedup.Set
}

// pruned reports whether instance k was decided here and then pruned.
func (l *Layer) pruned(k uint64) bool {
	return l.decidedSet.Seen(k) && l.insts[k] == nil
}

var _ stack.Layer = (*Layer)(nil)

// New returns a consensus layer that reports decisions to the subscriber
// layer. resendEvery drives crash-path retransmissions; horizon bounds how
// many decided instances are retained for catch-up.
func New(subscriber stack.Tag, resendEvery time.Duration, horizon int) *Layer {
	if horizon < 1 {
		horizon = 1
	}
	return &Layer{subscriber: subscriber, resend: resendEvery, horizon: horizon}
}

// Tag implements stack.Layer.
func (l *Layer) Tag() stack.Tag { return stack.TagConsensus }

// Init implements stack.Layer.
func (l *Layer) Init(ctx *stack.Context) {
	l.ctx = ctx
	l.self = ctx.Env().Self()
	if l.views == nil {
		l.views = member.NewHistory(ctx.Env().N()).Views()
	}
	l.insts = make(map[uint64]*instance)
	l.suspected = make(map[types.ProcessID]bool)
	l.decidedSet = dedup.NewSet()
}

// SeedView replaces the boot view (joiners start from the config they
// were admitted into, not from epoch 0). Call before the stack starts;
// it survives Init in either order.
func (l *Layer) SeedView(v member.View) {
	l.views = []member.View{v}
}

// Start implements stack.Layer.
func (l *Layer) Start() {}

// viewAt returns the membership view governing instance k.
func (l *Layer) viewAt(k uint64) member.View {
	for i := len(l.views) - 1; i >= 0; i-- {
		if l.views[i].Activation <= k {
			return l.views[i]
		}
	}
	return l.views[0]
}

// coordinatorAt returns the coordinator of round r (1-based) of
// instance k: the view's sorted members rotated by round. For the
// static epoch-0 view this is the paper's (r-1) mod n.
func (l *Layer) coordinatorAt(k uint64, r uint32) types.ProcessID {
	return l.viewAt(k).Coordinator(r)
}

// applyView appends a decided membership view and re-evaluates
// suspicion-driven round advancement for instances the new rotation now
// governs (a peer past the boundary may already have opened them in us
// via proposals under the old rotation).
func (l *Layer) applyView(activation uint64, members []types.ProcessID) {
	cur := l.views[len(l.views)-1]
	if activation <= cur.Activation {
		return
	}
	l.views = append(l.views, member.View{
		Epoch:      cur.Epoch + 1,
		Activation: activation,
		Members:    append([]types.ProcessID(nil), members...),
	})
	for _, k := range l.sortedInstanceKeys() {
		if k < activation {
			continue
		}
		inst := l.insts[k]
		for !inst.decided && l.suspected[l.coordinatorAt(k, inst.round)] {
			l.advanceRound(inst)
		}
	}
}

// instance state.
type instance struct {
	k uint64
	// round is the local progression: the round whose proposal this
	// process awaits or has acknowledged.
	round uint32
	// estimate/estTS/hasEstimate implement the CT locking rule: the
	// estimate is adopted from each acknowledged proposal with ts = round.
	estimate    wire.Batch
	estTS       uint32
	hasEstimate bool
	// proposals stores received proposals per round (needed to resolve
	// DECISION tags).
	proposals map[uint32]wire.Batch
	nacked    map[uint32]bool
	// coord holds this process's coordinator duties per round.
	coord map[uint32]*coordRound
	// decision state.
	decided         bool
	decision        wire.Batch
	decisionRound   uint32
	waitingDecision bool
}

type coordRound struct {
	estimates map[types.ProcessID]estimateEntry
	proposed  bool
	proposal  wire.Batch
	acks      map[types.ProcessID]bool
}

func (inst *instance) coordRound(r uint32) *coordRound {
	cr := inst.coord[r]
	if cr == nil {
		cr = &coordRound{
			estimates: make(map[types.ProcessID]estimateEntry),
			acks:      make(map[types.ProcessID]bool),
		}
		inst.coord[r] = cr
	}
	return cr
}

// get returns the instance state for k, creating it in round 1 (and
// immediately advancing past rounds whose coordinator is already
// suspected).
func (l *Layer) get(k uint64) *instance {
	inst := l.insts[k]
	if inst != nil {
		return inst
	}
	inst = &instance{
		k:         k,
		round:     1,
		proposals: make(map[uint32]wire.Batch),
		nacked:    make(map[uint32]bool),
		coord:     make(map[uint32]*coordRound),
	}
	l.insts[k] = inst
	for l.suspected[l.coordinatorAt(k, inst.round)] {
		l.advanceRound(inst)
	}
	return inst
}

// Event implements stack.Layer: EvProposeReq sets the local initial value;
// EvRDeliver carries reliably broadcast consensus messages (decisions).
func (l *Layer) Event(ev stack.Event) {
	switch ev.Kind {
	case stack.EvProposeReq:
		l.propose(ev.Instance, ev.Batch)
	case stack.EvRDeliver:
		m, err := unmarshalMessage(ev.Data)
		if err != nil || m.Type != mtDecisionTag {
			return
		}
		l.handleDecisionTag(ev.From, m)
	case stack.EvConfig:
		l.applyView(ev.Instance, ev.Members)
	}
}

// propose records the local initial value for instance k (the paper's
// propose primitive) and, if this process coordinates round 1, proposes
// immediately — the suppressed estimate phase.
func (l *Layer) propose(k uint64, batch wire.Batch) {
	if l.pruned(k) {
		return // decided long ago; the subscriber already holds the outcome
	}
	inst := l.get(k)
	if inst.decided || inst.hasEstimate {
		return
	}
	l.ctx.Env().Counters().ConsensusStarted.Add(1)
	inst.estimate = batch
	inst.estTS = 0
	inst.hasEstimate = true
	if l.coordinatorAt(k, 1) == l.self && inst.round == 1 && !inst.coordRound(1).proposed {
		l.proposeRound(inst, 1, batch)
		return
	}
	// A later-round coordinatorship may have been waiting for a local
	// initial value (all collected estimates were bottom).
	rounds := make([]uint32, 0, len(inst.coord))
	for r := range inst.coord {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	for _, r := range rounds {
		if !inst.coord[r].proposed {
			l.coordMaybePropose(inst, r)
		}
	}
}

// proposeRound makes this process (the coordinator of round r) send its
// proposal and adopt it as its own estimate.
func (l *Layer) proposeRound(inst *instance, r uint32, batch wire.Batch) {
	cr := inst.coordRound(r)
	cr.proposal = batch
	cr.proposed = true
	cr.acks[l.self] = true
	inst.estimate = batch
	inst.estTS = r
	inst.hasEstimate = true
	if r > inst.round {
		inst.round = r
	}
	inst.proposals[r] = batch
	l.sendAll(message{Type: mtProposal, Instance: inst.k, Round: r, Batch: batch})
	l.checkDecide(inst, r)
}

// coordMaybePropose proposes for round r >= 2 once a majority of estimates
// (including the local one) is available and at least one carries a value.
func (l *Layer) coordMaybePropose(inst *instance, r uint32) {
	if r < 2 || inst.decided {
		return
	}
	cr := inst.coordRound(r)
	if cr.proposed {
		return
	}
	view := l.viewAt(inst.k)
	votes := 0
	for p := range cr.estimates {
		if view.Contains(p) {
			votes++ // only the governing view's members form the quorum
		}
	}
	if _, ok := cr.estimates[l.self]; !ok && view.Contains(l.self) {
		votes++ // the local estimate participates implicitly
	}
	if votes < view.Majority() {
		return
	}
	// Choose the estimate with the largest timestamp ("the eldest value").
	// Iterate in member order so tie-breaks are deterministic.
	best := estimateEntry{hasValue: inst.hasEstimate, ts: inst.estTS, batch: inst.estimate}
	for _, p := range view.Members {
		e, ok := cr.estimates[p]
		if !ok || !e.hasValue {
			continue
		}
		if !best.hasValue || e.ts > best.ts {
			best = e
		}
	}
	if !best.hasValue {
		return // no initial value anywhere yet; retried when one arrives
	}
	l.proposeRound(inst, r, best.batch)
}

// advanceRound moves the local progression past a suspected coordinator:
// nack the abandoned round and send the current estimate to the next
// coordinator (the paper's round-change path; never taken in good runs).
func (l *Layer) advanceRound(inst *instance) {
	r := inst.round
	if c := l.coordinatorAt(inst.k, r); c != l.self && !inst.nacked[r] {
		l.send(c, message{Type: mtNack, Instance: inst.k, Round: r})
	}
	inst.nacked[r] = true
	inst.round = r + 1
	l.ctx.Env().Counters().Rounds.Add(1)
	next := l.coordinatorAt(inst.k, inst.round)
	if next == l.self {
		l.coordMaybePropose(inst, inst.round)
		return
	}
	l.send(next, message{
		Type:     mtEstimate,
		Instance: inst.k,
		Round:    inst.round,
		TS:       inst.estTS,
		HasValue: inst.hasEstimate,
		Batch:    inst.estimate,
	})
}

// Receive implements stack.Layer.
func (l *Layer) Receive(from types.ProcessID, data []byte) error {
	m, err := unmarshalMessage(data)
	if err != nil {
		return fmt.Errorf("consensus: from %s: %w", from, err)
	}
	switch m.Type {
	case mtProposal:
		if l.pruned(m.Instance) {
			return nil // decided and pruned: never vote again (see prunedFloor)
		}
		l.handleProposal(from, m)
	case mtAck:
		if l.pruned(m.Instance) {
			return nil
		}
		l.handleAck(from, m)
	case mtNack:
		if l.pruned(m.Instance) {
			return nil // late nack for a settled instance: never resurrect it
		}
		l.handleNack(m)
	case mtEstimate:
		if l.pruned(m.Instance) {
			return nil
		}
		l.handleEstimate(from, m)
	case mtDecisionTag:
		// Decision tags normally arrive through reliable broadcast
		// (Event/EvRDeliver); accept direct ones for robustness.
		l.handleDecisionTag(from, m)
	case mtDecisionReq:
		l.handleDecisionReq(from, m)
	case mtDecisionFull:
		l.handleDecisionFull(m)
	default:
		return fmt.Errorf("consensus: unexpected message type %d from %s", uint8(m.Type), from)
	}
	return nil
}

func (l *Layer) handleProposal(from types.ProcessID, m message) {
	inst := l.get(m.Instance)
	if inst.decided {
		return
	}
	inst.proposals[m.Round] = m.Batch
	if inst.waitingDecision && m.Round == inst.decisionRound {
		l.decideLocal(inst, m.Batch, m.Round)
		return
	}
	if m.Round < inst.round {
		// Stale proposal from an abandoned round.
		l.send(from, message{Type: mtNack, Instance: inst.k, Round: m.Round})
		return
	}
	inst.round = m.Round
	if inst.nacked[m.Round] {
		return
	}
	// Adopt the proposal (CT locking) and acknowledge.
	inst.estimate = m.Batch
	inst.estTS = m.Round
	inst.hasEstimate = true
	l.send(from, message{Type: mtAck, Instance: inst.k, Round: m.Round})
}

func (l *Layer) handleAck(from types.ProcessID, m message) {
	inst := l.get(m.Instance)
	if inst.decided {
		return
	}
	cr := inst.coordRound(m.Round)
	if !cr.proposed {
		return // stray ack for a round this process never proposed
	}
	cr.acks[from] = true
	l.checkDecide(inst, m.Round)
}

// handleNack processes a nack for a round this process coordinated. The
// optimized protocol starts new rounds only on suspicion, which is
// complete under quasi-reliable channels EXCEPT when the proposal was
// lost to a crash-recovery restart (the restarted peer has no memory of
// it and no reason to suspect anyone): the nacker has abandoned the round
// for good, so an unsuspected coordinator stuck waiting for a majority
// would wait forever. Advancing the local round re-enters the rotation —
// always safe in Chandra–Toueg (the estimate locking rule protects
// agreement); in good runs nacks only follow wrong suspicions and the
// instance has usually decided before the nack arrives.
func (l *Layer) handleNack(m message) {
	inst := l.get(m.Instance)
	if inst.decided || m.Round != inst.round {
		return
	}
	cr := inst.coord[m.Round]
	if cr == nil || !cr.proposed {
		return
	}
	// Advance, then keep advancing past coordinators that are currently
	// suspected (the same cascade Suspect performs): stopping on a round
	// whose coordinator is down would send the estimate into a void.
	l.advanceRound(inst)
	for !inst.decided && l.suspected[l.coordinatorAt(inst.k, inst.round)] {
		l.advanceRound(inst)
	}
}

func (l *Layer) handleEstimate(from types.ProcessID, m message) {
	inst := l.get(m.Instance)
	if inst.decided {
		// Catch the lagging process up instead.
		l.send(from, message{Type: mtDecisionFull, Instance: inst.k, Round: inst.decisionRound, Batch: inst.decision})
		return
	}
	if l.coordinatorAt(m.Instance, m.Round) != l.self || m.Round < 2 {
		return
	}
	cr := inst.coordRound(m.Round)
	cr.estimates[from] = estimateEntry{from: from, ts: m.TS, hasValue: m.HasValue, batch: m.Batch}
	l.coordMaybePropose(inst, m.Round)
}

// checkDecide decides once a majority (including the coordinator itself)
// has acknowledged the round-r proposal.
func (l *Layer) checkDecide(inst *instance, r uint32) {
	cr := inst.coordRound(r)
	if inst.decided || !cr.proposed {
		return
	}
	view := l.viewAt(inst.k)
	votes := 0
	for p := range cr.acks {
		if view.Contains(p) {
			votes++ // only the governing view's members form the quorum
		}
	}
	if votes < view.Majority() {
		return
	}
	// Disseminate the DECISION tag through reliable broadcast, then decide
	// locally. Receivers decide the proposal they already hold.
	tag := message{Type: mtDecisionTag, Instance: inst.k, Round: r}
	l.ctx.Emit(stack.TagRBcast, stack.Event{Kind: stack.EvBroadcastReq, Data: tag.marshal()})
	l.decideLocal(inst, cr.proposal, r)
}

// decideLocal finalizes the instance at this process and notifies the
// subscriber layer.
func (l *Layer) decideLocal(inst *instance, batch wire.Batch, r uint32) {
	if inst.decided {
		return
	}
	inst.decided = true
	inst.decision = batch
	inst.decisionRound = r
	inst.waitingDecision = false
	l.decidedSet.Mark(inst.k)
	l.decidedQ.Push(inst.k, inst.k)
	c := l.ctx.Env().Counters()
	c.ConsensusDecided.Add(1)
	c.BatchedMsgs.Add(int64(len(batch)))
	if inst.k > l.maxDecided {
		l.maxDecided = inst.k
	}
	l.ctx.Emit(l.subscriber, stack.Event{Kind: stack.EvDecide, Instance: inst.k, Batch: batch})
	l.prune()
	trace.Raise(&c.InstancesRetained, len(l.insts))
}

// handleDecisionTag processes the reliably broadcast DECISION tag: decide
// the matching proposal if held, otherwise fetch the full decision.
func (l *Layer) handleDecisionTag(origin types.ProcessID, m message) {
	if l.pruned(m.Instance) {
		return // long decided and pruned: a late duplicate tag
	}
	inst := l.get(m.Instance)
	if inst.decided {
		return
	}
	if batch, ok := inst.proposals[m.Round]; ok {
		l.decideLocal(inst, batch, m.Round)
		return
	}
	inst.waitingDecision = true
	inst.decisionRound = m.Round
	if origin != l.self && origin != types.Nobody {
		l.send(origin, message{Type: mtDecisionReq, Instance: inst.k})
		l.ctx.Env().Counters().Retransmissions.Add(1)
	}
	if l.resend > 0 {
		l.ctx.SetTimer(timerResend, l.resend)
	}
}

func (l *Layer) handleDecisionReq(from types.ProcessID, m message) {
	inst := l.insts[m.Instance]
	if inst == nil || !inst.decided {
		return
	}
	l.send(from, message{Type: mtDecisionFull, Instance: inst.k, Round: inst.decisionRound, Batch: inst.decision})
	l.ctx.Env().Counters().Retransmissions.Add(1)
}

func (l *Layer) handleDecisionFull(m message) {
	if l.pruned(m.Instance) {
		return
	}
	inst := l.get(m.Instance)
	if inst.decided {
		return
	}
	l.decideLocal(inst, m.Batch, m.Round)
}

// Timer implements stack.Layer: retry decision fetches for instances stuck
// waiting on a DECISION tag whose proposal never arrived.
func (l *Layer) Timer(id engine.TimerID) {
	if id != timerResend {
		return
	}
	waiting := false
	for _, k := range l.sortedInstanceKeys() {
		inst := l.insts[k]
		if !inst.waitingDecision || inst.decided {
			continue
		}
		waiting = true
		req := message{Type: mtDecisionReq, Instance: inst.k}
		sent := l.sendAll(req)
		l.ctx.Env().Counters().Retransmissions.Add(int64(sent))
	}
	if waiting && l.resend > 0 {
		l.ctx.SetTimer(timerResend, l.resend)
	}
}

// sortedInstanceKeys returns the live instance numbers in ascending order,
// so that iteration-driven sends are deterministic (required for
// reproducible simulation).
func (l *Layer) sortedInstanceKeys() []uint64 {
	keys := make([]uint64, 0, len(l.insts))
	for k := range l.insts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Suspect implements stack.Layer: advance every undecided instance whose
// current coordinator is now suspected (the only trigger for new rounds in
// the optimized protocol).
func (l *Layer) Suspect(p types.ProcessID, suspected bool) {
	l.suspected[p] = suspected
	if !suspected {
		return
	}
	for _, k := range l.sortedInstanceKeys() {
		inst := l.insts[k]
		for !inst.decided && l.suspected[l.coordinatorAt(k, inst.round)] {
			l.advanceRound(inst)
		}
	}
}

// prune drops decided instances that fell behind the retention horizon.
// Undecided instances are never pruned, whatever their number: with
// pipelining, up to PipelineDepth instances above maxDecided are
// legitimately still running.
func (l *Layer) prune() {
	if len(l.insts) <= l.horizon || l.maxDecided < uint64(l.horizon) {
		return
	}
	cutoff := l.maxDecided - uint64(l.horizon)
	for k, ok := l.decidedQ.Pop(cutoff); ok; k, ok = l.decidedQ.Pop(cutoff) {
		delete(l.insts, k)
	}
}

// send marshals and transmits one consensus message, accounting payload
// bytes for the data-volume analysis and whole-frame bytes as ordering
// traffic (OrderedBytes): every consensus frame exists only to order, so
// its full wire size — batch included — is the cost of ordering. Under
// digest ordering the batch is a 16-byte descriptor body and this counter
// stops scaling with payload size; that drop is the figure's headline.
func (l *Layer) send(to types.ProcessID, m message) {
	data := m.marshal()
	c := l.ctx.Env().Counters()
	c.PayloadBytesSent.Add(int64(m.Batch.PayloadBytes()))
	c.OrderedBytes.Add(int64(len(data)))
	l.ctx.NetSend(to, data)
}

// sendAll transmits one consensus message to every other member of the
// view governing its instance, returning the number of sends.
func (l *Layer) sendAll(m message) int {
	data := m.marshal()
	members := l.viewAt(m.Instance).Members
	sends := 0
	for _, p := range members {
		if p != l.self {
			sends++
		}
	}
	c := l.ctx.Env().Counters()
	c.PayloadBytesSent.Add(int64(m.Batch.PayloadBytes() * sends))
	c.OrderedBytes.Add(int64(len(data) * sends))
	l.ctx.NetSendMembers(members, data)
	return sends
}
