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
//     that round, and fetch the full decision only if they miss it
//     (ct.Table.Want).
//
// The rounds live in internal/ct, the round core the monolithic engine
// shares: this layer is that core behind the modular stack's envelope (its
// codec, the propose primitive, decisions rbcast as tags and emitted as
// stack.EvDecide).
//
// The layer manages many consensus instances (one per atomic broadcast
// batch) but exposes each as an independent black box: nothing about
// instance k is reused for instance k+1. That independence is precisely
// the modularity cost the paper measures; the monolithic engine removes it.
// It also makes the abcast layer's pipelining transparent here: W
// concurrent instances run their rounds and decision dissemination
// independently, and retention only ever drops decided instances.
package consensus

import (
	"fmt"
	"time"

	"modab/internal/ct"
	"modab/internal/dedup"
	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/stack"
	"modab/internal/types"
	"modab/internal/wire"
)

// Layer-local timers.
const (
	// timerFetch drives decision-fetch retries (ct.Table.RetryFetch).
	timerFetch engine.TimerID = 1
	// timerJoiner re-sends proposals a joiner may have missed
	// (ct.Table.ResendJoiner).
	timerJoiner engine.TimerID = 2
)

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
	// (stack.EvConfig from the abcast layer, in total order). Every quorum
	// and coordinator lookup for instance k goes through viewAt(k), never a
	// majority cached at construction: a decided remove from n=5 to 4 must
	// shrink the quorum on the very next governed instance.
	views      []member.View
	rounds     *ct.Table
	maxDecided uint64
	// decidedSet records every instance this process ever decided
	// (contiguous watermark plus sparse set). It outlives pruning, which is
	// what ct's refusal to vote in decided-then-pruned instances reads
	// (host.Settled); decisions land out of order under pipelining, so no
	// watermark can stand in for it.
	decidedSet *dedup.Set
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
	l.rounds = ct.New(l.self, (*host)(l), nil, ctx.Env().Counters())
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

// applyView appends a decided membership view and re-runs the suspicion
// cascade on the instances the new rotation now governs (a peer past the
// boundary may already have opened them in us via proposals under the old
// rotation).
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
	l.rounds.Readvance(activation)
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
	if l.rounds.Pruned(k) {
		return // decided long ago; the subscriber already holds the outcome
	}
	inst := l.rounds.Get(k)
	if inst.Decided || inst.HasEst {
		return
	}
	l.ctx.Env().Counters().ConsensusStarted.Add(1)
	inst.Est, inst.EstTS, inst.HasEst = batch, 0, true
	if l.rounds.Coordinator(k, 1) == l.self && inst.Round == 1 && !inst.Duty(1).Proposed {
		l.rounds.Propose(inst, 1, batch)
		return
	}
	// A later-round coordinatorship may have been waiting for a local
	// initial value (all collected estimates were bottom).
	for _, r := range inst.Rounds() {
		if !inst.Coord[r].Proposed {
			l.rounds.MaybePropose(inst, r)
		}
	}
}

// Receive implements stack.Layer.
func (l *Layer) Receive(from types.ProcessID, data []byte) error {
	m, err := unmarshalMessage(data)
	if err != nil {
		return fmt.Errorf("consensus: from %s: %w", from, err)
	}
	switch m.Type {
	case mtProposal:
		l.rounds.Proposal(from, m.Instance, m.Round, m.Batch)
	case mtAck:
		l.rounds.Ack(from, m.Instance, m.Round)
	case mtNack:
		l.rounds.Nack(m.Instance, m.Round)
	case mtEstimate:
		l.rounds.Estimate(from, m.Instance, m.Round, ct.Estimate{TS: m.TS, HasValue: m.HasValue, Batch: m.Batch})
	case mtDecisionTag:
		// Decision tags normally arrive through reliable broadcast
		// (Event/EvRDeliver); accept direct ones for robustness.
		l.handleDecisionTag(from, m)
	case mtDecisionReq:
		if inst := l.rounds.Lookup(m.Instance); inst != nil && inst.Decided {
			(*host)(l).SendDecision(from, inst)
			l.ctx.Env().Counters().Retransmissions.Add(1)
		}
	case mtDecisionFull:
		if !l.rounds.Pruned(m.Instance) {
			l.decideLocal(l.rounds.Get(m.Instance), m.Batch, m.Round)
		}
	default:
		return fmt.Errorf("consensus: unexpected message type %d from %s", uint8(m.Type), from)
	}
	return nil
}

// decideLocal finalizes the instance at this process and notifies the
// subscriber layer.
func (l *Layer) decideLocal(inst *ct.Inst, batch wire.Batch, r uint32) {
	if inst.Decided {
		return
	}
	l.rounds.Decided(inst, batch, r)
	l.decidedSet.Mark(inst.K)
	c := l.ctx.Env().Counters()
	c.ConsensusDecided.Add(1)
	c.BatchedMsgs.Add(int64(len(batch)))
	if inst.K > l.maxDecided {
		l.maxDecided = inst.K
	}
	l.ctx.Emit(l.subscriber, stack.Event{Kind: stack.EvDecide, Instance: inst.K, Batch: batch})
	l.rounds.Prune()
}

// handleDecisionTag processes the reliably broadcast DECISION tag: the
// round core decides the matching proposal if held, and otherwise fetches
// the full decision from the tag's origin.
func (l *Layer) handleDecisionTag(origin types.ProcessID, m message) {
	if l.rounds.Want(origin, m.Instance, m.Round) && l.resend > 0 {
		l.ctx.SetTimer(timerFetch, l.resend)
	}
}

// Timer implements stack.Layer: retry decision fetches for instances stuck
// waiting on a DECISION tag whose proposal never arrived, and re-send
// proposals a joiner may have missed.
func (l *Layer) Timer(id engine.TimerID) {
	var again bool
	switch id {
	case timerFetch:
		again = l.rounds.RetryFetch()
	case timerJoiner:
		again = l.rounds.ResendJoiner()
	}
	if again {
		l.ctx.SetTimer(id, l.resend)
	}
}

// Suspect implements stack.Layer: advance every undecided instance whose
// current coordinator is now suspected (the only trigger for new rounds in
// the optimized protocol).
func (l *Layer) Suspect(p types.ProcessID, suspected bool) {
	l.rounds.Suspected[p] = suspected
	if suspected {
		l.rounds.Readvance(0)
	}
}

// send transmits one consensus message to one peer.
func (l *Layer) send(to types.ProcessID, m message) { l.sendTo([]types.ProcessID{to}, 1, m) }

// sendAll transmits one consensus message to every other member of the
// view governing its instance.
func (l *Layer) sendAll(m message) {
	v := l.viewAt(m.Instance)
	l.sendTo(v.Members, v.Others(l.self), m)
}

// sendTo sends one consensus message to members from a pooled writer,
// accounting payload and whole-frame bytes as ordering traffic
// (OrderedBytes): every consensus frame exists only to order, so its full
// wire size is the cost of ordering (with digests it stops scaling).
func (l *Layer) sendTo(members []types.ProcessID, sends int, m message) {
	w := m.encode()
	c := l.ctx.Env().Counters()
	c.PayloadBytesSent.Add(int64(m.Batch.PayloadBytes() * sends))
	c.OrderedBytes.Add(int64(w.Len() * sends))
	l.ctx.NetSendMembers(members, w.Bytes())
	wire.PutWriter(w)
}

// host is the Layer seen through ct.Host: the modular envelope of the round
// rules. Decisions are rbcast as tags and emitted as EvDecide; with no
// estimate holding a value a coordinator waits for the local propose; a
// proposal into a decided instance is dropped (the decision tag went out
// through rbcast) and a message into a pruned one too (decisions live behind
// the black box, in no log it could serve from). A separate named type keeps
// these methods off the Layer's public surface.
type host Layer

var _ ct.Host = (*host)(nil)

func (h *host) View(k uint64) member.View { return (*Layer)(h).viewAt(k) }
func (h *host) Settled(k uint64) bool     { return h.decidedSet.Seen(k) }
func (h *host) Frozen() bool              { return false }
func (h *host) Fresh(*ct.Inst) wire.Batch { return nil }

// Decide disseminates the DECISION tag through reliable broadcast when this
// process gathered the quorum, then decides locally: receivers decide the
// proposal they already hold.
func (h *host) Decide(in *ct.Inst, b wire.Batch, r uint32, quorum bool) {
	if quorum {
		tag := message{Type: mtDecisionTag, Instance: in.K, Round: r}
		h.ctx.Emit(stack.TagRBcast, stack.Event{Kind: stack.EvBroadcastReq, Data: tag.marshal()})
	}
	(*Layer)(h).decideLocal(in, b, r)
}

// Cutoff retains the horizon's worth of decided instances below the
// highest decided one, and everything while no more than that is held.
func (h *host) Cutoff() (uint64, bool) {
	hz := uint64(h.horizon)
	return h.maxDecided - hz, h.rounds.Len() > h.horizon && h.maxDecided >= hz
}

// The envelope: proposals go to every other member of the instance's view,
// and again after the resend period while a joiner may have missed them.
func (h *host) SendProposal(in *ct.Inst, r uint32, b wire.Batch) {
	l := (*Layer)(h)
	l.sendAll(message{Type: mtProposal, Instance: in.K, Round: r, Batch: b})
	if l.resend > 0 && l.rounds.Admits(in.K) {
		l.ctx.SetTimer(timerJoiner, l.resend)
	}
}
func (h *host) ResendProposal(to types.ProcessID, in *ct.Inst, r uint32) {
	(*Layer)(h).send(to, message{Type: mtProposal, Instance: in.K, Round: r, Batch: in.Coord[r].Proposal})
}
func (h *host) SendAck(to types.ProcessID, in *ct.Inst, r uint32) {
	(*Layer)(h).send(to, message{Type: mtAck, Instance: in.K, Round: r})
}
func (h *host) SendNack(to types.ProcessID, k uint64, r uint32) {
	(*Layer)(h).send(to, message{Type: mtNack, Instance: k, Round: r})
}
func (h *host) SendEstimate(to types.ProcessID, in *ct.Inst) {
	(*Layer)(h).send(to, message{Type: mtEstimate, Instance: in.K, Round: in.Round,
		TS: in.EstTS, HasValue: in.HasEst, Batch: in.Est})
}
func (h *host) SendDecision(to types.ProcessID, in *ct.Inst) {
	(*Layer)(h).send(to, message{Type: mtDecisionFull, Instance: in.K, Round: in.DecisionRound, Batch: in.Decision})
}
func (h *host) FetchDecision(to types.ProcessID, k uint64) {
	(*Layer)(h).send(to, message{Type: mtDecisionReq, Instance: k})
}

func (h *host) ServeLate(types.ProcessID, *ct.Inst)         {}
func (h *host) ServePruned(types.ProcessID, uint64, uint32) {}
