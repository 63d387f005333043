// Package monolithic implements the monolithic atomic broadcast stack
// (paper §4, Fig. 1 right): the same reliable broadcast, consensus and
// atomic broadcast algorithms as internal/modular, merged into a single
// module so that the three cross-module optimizations become possible:
//
//  1. §4.1 — the decision of consensus instance k-1 is piggybacked on the
//     proposal of instance k (both come from the same coordinator in good
//     runs), saving the standalone decision dissemination;
//  2. §4.2 — abcast messages are not diffused to everyone; they ride on
//     the consensus ack (or, on coordinator change, on the estimate) to
//     the coordinator only, which is the one process that needs them;
//  3. §4.3 — the reliable broadcast of decisions is reduced from
//     (n-1)·⌊(n+1)/2⌋ messages to n-1: the messages of instance k+1 act as
//     implicit acknowledgments for the decision of instance k.
//
// In saturated good runs one consensus instance therefore costs exactly
// 2(n-1) messages — proposal+decision out, ack+diffusion back — versus
// (n-1)(M+2+⌊(n+1)/2⌋) for the modular stack (§5.2.1).
//
// Correctness in bad runs is preserved by the same Chandra–Toueg round
// rules as the modular consensus — they live once in internal/ct, and this
// engine supplies the envelope and the §4 hooks (estimates carry the
// sender's unordered messages to the new coordinator) — plus gap detection
// for processes that missed a piggybacked decision, fetched by the round
// core's one decision-fetch policy (ct.Table.Want).
//
// With pipelining enabled (engine.Config.PipelineDepth > 1) the
// coordinator proposes into up to W instances past its decided watermark
// concurrently — the pool (the tail's pool.Pool, shared with the modular
// stack) is partitioned so no message rides two open proposals — and the §4.1 piggyback generalizes to "the latest decided
// instance on every fresh proposal", with a standalone decision flush
// whenever a decision finds no fresh proposal to ride. Depth 1 reproduces
// the paper's strictly sequential engine bit-for-bit.
package monolithic

import (
	"fmt"
	"time"

	"modab/internal/ct"
	"modab/internal/engine"
	"modab/internal/head"
	"modab/internal/member"
	"modab/internal/obs"
	"modab/internal/pool"
	"modab/internal/tail"
	"modab/internal/types"
	"modab/internal/wire"
)

// attachGrace is how many instances an attached-but-unordered own message
// may wait before being re-attached to the next ack (covers acks that
// arrived after the coordinator already proposed). It sits above the
// natural pipeline wait (2-3 instances under saturation) so no duplicate
// piggybacking happens in good runs. With pipelining the grace scales by
// the window W, matching the W× deeper backlog and longer instance wait.
const attachGrace = 8

// Engine is the monolithic atomic broadcast engine.
type Engine struct {
	env engine.Env
	cfg engine.Config

	self types.ProcessID
	// t is the delivery tail (internal/tail): everything downstream of a
	// decision — commit, membership, state transfer, payload residency —
	// shared with the modular stack. It owns the decided watermark, the
	// flow window, the delivered set, the failure-detector output and the
	// view history: every quorum check, coordinator rotation and send
	// fan-out for instance k consults the view governing k, never a cached
	// group size. It also holds the pool (t.Pool): the messages this
	// process would propose when coordinating, its own plus those
	// piggybacked to it. The own backlog is the pool's window for self, and
	// an entry's mark is the instance whose ack or estimate last carried it
	// to a coordinator (0: never). The engine keeps only ordering state.
	t *tail.Tail
	// hd is the shared head (internal/head): everything upstream of ordering
	// — admission, sender-side batching, announce and relay through the
	// dissemination strategy — shared with the modular stack. Of the
	// engine's own messages only the bulky combined proposal+decision goes
	// through the strategy: under Ring it is relayed successor-to-successor
	// instead of broadcast, so the coordinator's egress stops scaling with
	// n; every other message type keeps its original path.
	hd *head.Head
	// viewKick defers the post-view-change suspicion cascade out of the
	// delivery loop (config ops apply mid-Commit; advancing rounds there
	// could nest a decide under a half-updated instance).
	viewKick bool

	// pipe is the effective pipeline window W (>= 1): how many instances
	// past decidedK this process keeps proposing into concurrently; 1
	// reproduces the paper's strictly sequential engine bit-for-bit.
	pipe int
	// propSent counts proposals ever sent (decide uses it to detect that a
	// fresh proposal carried the latest decision).
	propSent int64
	// rounds holds the round state of undecided instances and recently
	// decided ones (catch-up horizon): the round core shared with the
	// modular stack, driven through host's ct.Host answers.
	rounds *ct.Table
	// lastProgress is when the last decision was processed (kick guard).
	lastProgress time.Duration
	started      bool
	// pipelineIdle reports that the consensus pipeline stopped (the last
	// decision was flushed standalone because the coordinator's pool was
	// empty). While the pipeline runs, fresh abcast messages simply wait
	// for the next ack; when it is idle they must be forwarded explicitly
	// to restart it.
	pipelineIdle bool
	// parked is the head decision (instance decidedK+1) blocked on a missing
	// payload while the tail's payload wait is active: the unresolved
	// descriptor batch and its round, retried when bytes become resident.
	parked struct {
		batch wire.Batch
		round uint32
	}
}

var _ engine.Engine = (*Engine)(nil)

// New builds the monolithic engine for the given environment.
func New(env engine.Env, cfg engine.Config) *Engine {
	e := &Engine{
		env:  env,
		cfg:  cfg,
		self: env.Self(),
		pipe: cfg.EffectivePipeline(),
	}
	e.t = tail.New(env, &e.cfg, (*host)(e))
	e.rounds = ct.New(e.self, (*host)(e), e.t.Suspected, env.Counters())
	e.hd = head.New(env, &e.cfg, e.t, (*host)(e))
	// The replayed unordered own backlog re-enters the pool (its
	// flow-control slots are already re-occupied by the tail, bound to the
	// real sequence numbers whatever form the entries take).
	for _, m := range e.hd.Backlog {
		e.t.Pool.Add(m, 0)
	}
	e.t.ReplayViews()
	return e
}

// Start implements engine.Engine. A recovered engine announces itself and
// begins state transfer before proposing anything.
func (e *Engine) Start() {
	e.started = true
	e.pipelineIdle = true
	if st := e.cfg.Recovered; st != nil {
		c := e.env.Counters()
		c.Recoveries.Add(1)
		c.RecoveryReplayedMsgs.Add(st.ReplayedMsgs)
		if e.others() > 0 {
			e.t.BeginRecovery()
			// Re-inject the replayed own backlog: forward it to the current
			// coordinator now (the paper's bootstrap path) so its ordering
			// does not depend on the idle-kick timer being enabled. Under
			// digest ordering the payload bytes must travel too — the
			// forward carries only descriptors.
			e.reannounceOwn()
			e.forwardRecoveredOwn()
		} else {
			e.tryPropose()
		}
	}
	e.armKick()
}

// forwardRecoveredOwn pushes the admitted-but-unordered messages of the
// previous incarnation toward the current coordinator (when that is not
// this process — a coordinating self proposes them via tryPropose after
// catch-up, since the pool already holds them).
func (e *Engine) forwardRecoveredOwn() {
	if len(e.own()) == 0 {
		return
	}
	cur := e.current()
	if coord := e.rounds.Coordinator(cur.K, cur.Round); coord != e.self {
		e.forwardOwn(cur, coord)
	}
}

// Pending implements engine.Engine: unordered messages known locally,
// including any still waiting in the sender-side batch accumulator.
func (e *Engine) Pending() int { return e.t.Pool.Len() + e.hd.Accumulating() }

// own returns the own unordered messages: the pool's window for self.
func (e *Engine) own() []pool.Entry { return e.t.Pool.Window(e.self) }

// others counts current-view members other than this process.
func (e *Engine) others() int { return e.t.Hist.Current().Others(e.self) }

// current returns the instance currently being agreed on (decidedK+1).
func (e *Engine) current() *ct.Inst { return e.rounds.Get(e.decidedK() + 1) }

// Abcast implements engine.Engine: the shared head admits the message and
// hands back what it seals (see host.Sealed).
func (e *Engine) Abcast(body []byte) (types.MsgID, error) { return e.hd.Abcast(body) }

// forwardOwn sends every eligible own message to the coordinator as a
// standalone forward (idle/bootstrap path).
func (e *Engine) forwardOwn(cur *ct.Inst, coord types.ProcessID) {
	batch := e.attachOwn(cur.K, false)
	if len(batch) == 0 {
		return
	}
	e.send(coord, message{Type: mForward, Instance: cur.K, Round: cur.Round, Batch: batch})
}

// attachOwn collects the own unordered messages to (re)send to a
// coordinator for instance k, and marks them attached to k: all of them
// (estimates and kicks: the new coordinator starts with nothing of ours),
// or those never attached or attached more than the grace ago (acks).
func (e *Engine) attachOwn(k uint64, all bool) wire.Batch {
	var batch wire.Batch
	own := e.own()
	for i := range own {
		if a := own[i].Mark; all || a == 0 || k >= a+attachGrace*uint64(e.pipe) {
			own[i].Mark = k
			batch = append(batch, own[i].Msg)
		}
	}
	return batch
}

// tryPropose makes this process propose for every window instance whose
// current round it coordinates and has not proposed yet (round 1: the
// proposable pool, estimate phase suppressed; rounds >= 2: the locked
// estimate once a majority of estimates arrived). With pipe == 1 the
// window is the single current instance — the paper's sequential engine;
// deeper windows keep up to W proposals in flight, each carrying a
// disjoint slice of the pool.
func (e *Engine) tryPropose() {
	if e.t.Rec.Active() {
		return // never propose while catching up on missed decisions
	}
	for k := e.decidedK() + 1; k <= e.decidedK()+uint64(e.pipe); k++ {
		in := e.rounds.Get(k)
		if in.Decided {
			continue
		}
		r := in.Round
		if e.rounds.Coordinator(k, r) != e.self || in.Duty(r).Proposed {
			continue
		}
		if r > 1 {
			e.rounds.MaybePropose(in, r)
			continue
		}
		if batch := (*host)(e).Fresh(in); len(batch) > 0 {
			e.rounds.Propose(in, r, batch)
		} // else nothing proposable; later round-1 slots are empty too
	}
}

// eachOpen calls f on each of this process's in-flight proposals: window
// instances whose current round this process proposed and that have not
// decided yet.
func (e *Engine) eachOpen(f func(in *ct.Inst, d *ct.Duty)) {
	for k := e.decidedK() + 1; k <= e.decidedK()+uint64(e.pipe); k++ {
		in := e.rounds.Lookup(k)
		if in == nil || in.Decided {
			continue
		}
		if d := in.Coord[in.Round]; d != nil && d.Proposed {
			f(in, d)
		}
	}
}

// openProposals counts this process's in-flight proposals.
func (e *Engine) openProposals() (n int) {
	e.eachOpen(func(*ct.Inst, *ct.Duty) { n++ })
	return n
}

// propDec builds round r's combined proposal+decision (§4.1). Sequentially
// the freshest decision is exactly instance k-1; under pipelining the
// proposal of a newly opened window slot instead carries the latest decided
// instance, which is what keeps every peer's in-order decide cascade fed
// while earlier slots are still in flight.
func (e *Engine) propDec(in *ct.Inst, r uint32, b wire.Batch) message {
	m := message{Type: mPropDec, Instance: in.K, Round: r, Batch: b}
	prevK := in.K - 1
	if e.pipe > 1 {
		prevK = e.decidedK()
	}
	if prev := e.rounds.Lookup(prevK); prev != nil && prev.Decided {
		m.PrevDecided, m.PrevK, m.PrevRound = true, prev.K, prev.DecisionRound
	}
	return m
}

// spreadPropDec disseminates a combined proposal+decision according to
// the strategy: a plain broadcast under AllToAll (the paper's behavior,
// bit-identical), or one transmission to the first live successor under
// Ring, in a wire relay frame that the successors carry around the group
// (host.Relayed) and that stays ordering cost all the way round.
func (e *Engine) spreadPropDec(m message) {
	// Digest ordering: the proposal carries descriptors only — pure control
	// that no longer scales with payload size — so it never rides the ring;
	// the head's announces are what relays.
	if !e.cfg.DigestOrdering && e.hd.Ring() && e.hd.Relay(m.marshal(), m.payloadBytes(), true) {
		return
	}
	e.sendAll(m)
}

// reannounceOwn re-disseminates the payload batch of every own undecided
// descriptor (digest ordering; no-op otherwise). Recovered backlogs and
// stalled kicks must re-spread the payload bytes, not just the
// descriptor — a forward alone could let the cluster order a digest
// whose bytes only this process holds.
func (e *Engine) reannounceOwn() {
	own := e.own()
	if !e.cfg.DigestOrdering || len(own) == 0 {
		return
	}
	entries := make(wire.Batch, len(own))
	for i := range own {
		entries[i] = own[i].Msg
	}
	e.env.Counters().Retransmissions.Add(int64(e.hd.Reannounce(entries)))
}

// respreadOpen re-disseminates every open proposal this process
// coordinates, with fresh relay sequence numbers — the ring's stall
// backstop. A relayed proposal that died mid-ring (crashed or partitioned
// successor, before the failure detector fired) leaves the coordinator
// waiting on a majority that cannot complete and nothing else would ever
// retransmit it; suspicion changes and the kick timer route it around the
// repaired ring. No-op under AllToAll, where the broadcast already
// reached everyone.
func (e *Engine) respreadOpen() {
	if !e.hd.Ring() || e.t.Rec.Active() {
		return
	}
	e.eachOpen(func(in *ct.Inst, d *ct.Duty) {
		if e.rounds.Coordinator(in.K, in.Round) == e.self {
			e.env.Counters().Retransmissions.Add(1)
			e.spreadPropDec(e.propDec(in, in.Round, d.Proposal))
		}
	})
}

// HandleMessage implements engine.Engine. An mFrame's frame goes to the
// shared router (head.Receive).
func (e *Engine) HandleMessage(from types.ProcessID, data []byte) error {
	if len(data) > 0 && mtype(data[0]) == mFrame {
		e.env.Counters().Dispatches.Add(1)
		if err := e.hd.Receive(from, data[1:]); err != nil {
			return fmt.Errorf("monolithic: from %s: %w", from, err)
		}
		return nil
	}
	m, err := unmarshalMessage(data)
	if err != nil {
		return fmt.Errorf("monolithic: from %s: %w", from, err)
	}
	e.env.Counters().Dispatches.Add(1)
	switch m.Type {
	case mPropDec:
		e.handlePropDec(from, m)
	case mAckDiff:
		e.handleAckDiff(from, m)
	case mEstimate:
		e.handleEstimate(from, m)
	case mNack:
		e.rounds.Nack(m.Instance, m.Round)
	case mForward:
		e.handleForward(m)
	case mDecisionOnly:
		e.handleDecisionOnly(from, m)
	case mDecisionReq:
		e.handleDecisionReq(from, m)
	case mDecisionFull:
		e.handleDecisionFull(m)
	default:
		return fmt.Errorf("monolithic: unexpected message type %d from %s", uint8(m.Type), from)
	}
	return nil
}

// handlePropDec processes the combined proposal+decision: apply the
// piggybacked decision of k-1, then adopt and acknowledge proposal k,
// piggybacking fresh own messages on the ack (§4.1 + §4.2; host.SendAck).
func (e *Engine) handlePropDec(from types.ProcessID, m message) {
	e.pipelineIdle = false
	if m.PrevDecided {
		e.applyRemoteDecision(from, m.PrevK, m.PrevRound)
	}
	e.rounds.Proposal(from, m.Instance, m.Round, m.Batch)
}

// handleAckDiff processes an ack at the coordinator: pool the piggybacked
// messages and decide on majority. A late ack for a decided instance is
// normal (the coordinator decides on the majority ack); the acker learns
// the decision from the piggyback on the next proposal or the standalone
// flush.
func (e *Engine) handleAckDiff(from types.ProcessID, m message) {
	e.t.Offer(m.Batch, 0)
	e.rounds.Ack(from, m.Instance, m.Round)
	e.tryPropose()
}

// handleEstimate processes a round-change estimate at the new coordinator,
// pooling the own messages it carries (§4.2).
func (e *Engine) handleEstimate(from types.ProcessID, m message) {
	e.t.Offer(m.Piggyback, 0)
	e.rounds.Estimate(from, m.Instance, m.Round, ct.Estimate{TS: m.TS, HasValue: m.HasValue, Batch: m.Batch})
}

// handleForward pools directly forwarded messages at the coordinator.
func (e *Engine) handleForward(m message) {
	e.t.Offer(m.Batch, 0)
	e.tryPropose()
}

// applyRemoteDecision applies a decision learned from a peer (piggybacked
// on a proposal or flushed standalone). Decisions apply strictly in order:
// an announcement for a later instance is remembered on the instance, so
// the cascade in finalize picks it up, and the gap below it is fetched.
func (e *Engine) applyRemoteDecision(from types.ProcessID, k uint64, round uint32) {
	if k > e.decidedK()+1 && e.t.Rec.Active() {
		// The bulk state transfer already covers the gap.
		if in := e.rounds.Get(k); !in.Decided && in.Waiting == 0 {
			in.Waiting = round
		}
		return
	}
	e.wantBelow(from, k)
	e.want(from, k, round)
}

// wantBelow wants every undecided instance below k, which an announcement
// from a process that decides in order proves decided (round unknown),
// unless catch-up is under way and its state transfer covers them.
func (e *Engine) wantBelow(from types.ProcessID, k uint64) {
	if e.t.Rec.Active() {
		return
	}
	for j := e.decidedK() + 1; j < k; j++ {
		e.want(from, j, 0)
	}
}

// want hands the round core one announced decision (ct.Table.Want) and
// arms the fetch timer when it asks. Under ring dissemination the proposal
// carrying the decision is usually still relaying around the ring (direct
// control frames outrun it), and an immediate ask per announcement floods
// the decider with full-decision re-serves: the announcer is withheld, and
// the fetch waits for a resend period with no decision.
func (e *Engine) want(from types.ProcessID, k uint64, round uint32) {
	if e.hd.Ring() {
		from = types.Nobody
	}
	if e.rounds.Want(from, k, round) && e.cfg.ResendEvery > 0 {
		e.env.SetTimer(engine.TimerResend, e.cfg.ResendEvery)
	}
}

// decide finalizes the current instance from an unresolved decision
// batch: under digest ordering the decided descriptors are first resolved
// to their resident payload batches — parking the head (the tail arms the
// payload re-fetch) when some payload has not arrived — while payload
// ordering adelivers the batch directly.
func (e *Engine) decide(in *ct.Inst, batch wire.Batch, r uint32) {
	if in.Decided || in.K != e.decidedK()+1 {
		return
	}
	if !e.cfg.DigestOrdering {
		e.finalize(in, batch, nil, r)
		return
	}
	resolved, descs, blocked := e.t.Resolve(batch)
	if blocked {
		e.parked.batch, e.parked.round = batch, r
		e.t.Block()
		return
	}
	e.t.Unblock()
	e.finalize(in, resolved, descs, r)
}

// decideResolved finalizes the current instance from an already-resolved
// decision batch — a full-decision re-serve or a recovery chunk, whose
// batches were stored post-resolution (the WAL and instance memory keep
// resolved bytes under digest ordering). Re-resolving them would be
// wrong, not just wasteful: a real 16-byte message body aliases a
// descriptor encoding.
func (e *Engine) decideResolved(in *ct.Inst, batch wire.Batch, r uint32) {
	if in.Decided || in.K != e.decidedK()+1 {
		return
	}
	e.t.Unblock()
	e.finalize(in, batch, nil, r)
}

// retryBlockedDecide re-attempts the head decision parked on a missing
// payload (after an announce, relay or fetch response made bytes
// resident).
func (e *Engine) retryBlockedDecide() {
	if !e.t.Blocked() {
		return
	}
	in := e.rounds.Lookup(e.decidedK() + 1)
	if in == nil || in.Decided {
		e.t.Unblock() // stale wait: the parked instance is gone
		return
	}
	e.decide(in, e.parked.batch, e.parked.round)
}

// payloadTimer is the digest-ordering re-fetch driver: if the head is
// still blocked after a full resend period, the tail fetches its first
// missing payload from one rotating live holder.
func (e *Engine) payloadTimer() {
	e.retryBlockedDecide()
	if e.t.Blocked() {
		e.t.FetchMissing(e.parked.batch)
	}
}

// finalize commits the head decision: the tail commits the batch (the
// ordered entries leave the pool, then log, adeliver in deterministic
// order, release flow control — see tail.Commit), then the engine closes
// its proposal bookkeeping, cascades buffered successors and keeps the
// pipeline moving. batch is the adeliverable form — the resolved real
// messages under digest ordering — and descs the descriptors the decision
// retired (digest ordering only; nil otherwise).
func (e *Engine) finalize(in *ct.Inst, batch wire.Batch, descs []wire.Descriptor, r uint32) {
	e.rounds.Decided(in, batch, r)
	e.t.Advance(in.K)
	e.lastProgress = e.env.Now()
	c := e.env.Counters()
	c.ConsensusDecided.Add(1)
	c.BatchedMsgs.Add(int64(len(batch)))
	e.t.Commit(in.K, batch, descs)
	// Close this instance's proposal bookkeeping: pool messages it carried
	// but did not order become proposable again for a later window slot.
	e.t.Pool.ReleaseBelow(in.K + 1)
	// A config op applied in this instance may have reshaped the
	// coordinator rotation of open instances at or past its activation:
	// re-run the suspicion cascade outside the delivery loop.
	if e.viewKick {
		e.viewKick = false
		e.rounds.Readvance(0)
	}
	e.rounds.Prune()
	// Cascade: a decision announcement for the next instance may already
	// be buffered (out-of-order recovery).
	if buf := e.rounds.Lookup(e.decidedK() + 1); buf != nil && !buf.Decided && buf.Waiting != 0 {
		if batch, ok := buf.Proposals[buf.Waiting]; ok {
			e.decide(buf, batch, buf.Waiting)
			return
		}
	}
	// Cascade (ack path): with pipelining, a later window instance can
	// complete its ack majority while an earlier one is still undecided —
	// that CheckDecide attempt is dropped by the in-order guard at the top
	// of this function, and since its acks are already consumed, nothing
	// would ever re-trigger it. Re-check the new window head's coordinator
	// rounds now that it became eligible. (Sequential operation keeps the
	// paper's exact behavior: the coordinator never has a completed
	// majority waiting beyond the current instance in good runs, and the
	// pinned golden traces assume the pre-pipelining tail.)
	if nxt := e.rounds.Lookup(e.decidedK() + 1); nxt != nil && !nxt.Decided && e.pipe > 1 {
		for _, r := range nxt.Rounds() {
			e.rounds.CheckDecide(nxt, r)
			if nxt.Decided {
				return
			}
		}
	}
	// Keep the pipeline moving: sliding the window open one more slot lets
	// this coordinator propose again, piggybacking this decision (§4.1).
	// If no fresh proposal went out to carry it, flush the decision
	// standalone so the idle tail still learns it (never taken under
	// load). During state-transfer catch-up the decisions being applied
	// are old news to every peer, so the keepalive is skipped.
	//
	// The flush also runs when this process decided as the proposer of a
	// round it does NOT carry into the next instance — a round-changed
	// coordinator after the failure detector healed (the next instance
	// restarts at round 1 under the original coordinator). The §4.3
	// implicit acknowledgment assumes the decider keeps coordinating;
	// without this flush a decision taken in round >= 2 just before the
	// suspicion cleared would never be disseminated and the lagging peers
	// would wedge (found by the chaos harness under healed partitions).
	if e.t.Rec.Active() {
		return
	}
	next := e.current()
	wasProposer := in.Coord[r] != nil && in.Coord[r].Proposed
	if e.rounds.Coordinator(next.K, next.Round) == e.self || wasProposer {
		sent := e.propSent
		e.tryPropose()
		noneOpen := e.openProposals() == 0
		if e.propSent == sent && (e.pipe > 1 || noneOpen) {
			// Sequentially the flush is gated on the whole (one-slot)
			// window being unproposed, exactly as the paper's engine; a
			// deeper pipeline must flush whenever no fresh proposal carried
			// the decision — earlier in-flight proposals predate it.
			e.pipelineIdle = noneOpen
			e.sendAll(message{Type: mDecisionOnly, Instance: in.K, Round: r})
		}
	}
	e.armKick()
}

// handleDecisionOnly processes a standalone decision flush: the pipeline
// has stopped, so any locally waiting messages must be forwarded to the
// coordinator explicitly to restart it.
func (e *Engine) handleDecisionOnly(from types.ProcessID, m message) {
	e.pipelineIdle = true
	e.applyRemoteDecision(from, m.Instance, m.Round)
	if len(e.own()) > 0 {
		cur := e.current()
		if coord := e.rounds.Coordinator(cur.K, cur.Round); coord != e.self && !cur.Decided && len(cur.Proposals) == 0 {
			e.forwardOwn(cur, coord)
		}
	}
}

// handleDecisionReq answers with the full decision if known.
func (e *Engine) handleDecisionReq(from types.ProcessID, m message) {
	in := e.rounds.Lookup(m.Instance)
	if in == nil || !in.Decided {
		if m.Instance <= e.decidedK() {
			// Decided here but pruned from memory: serve it from the
			// durable log if there is one (a peer lagging past the
			// retention horizon has no other way back without a full
			// state transfer). The round is a synthesized label — see
			// host.ServePruned.
			(*host)(e).ServePruned(from, m.Instance, 1)
		}
		return
	}
	(*host)(e).ServeLate(from, in)
}

// handleDecisionFull applies a fetched or re-served decision. An early
// arrival, past the next instance, is buffered on the instance as its
// decided round's proposal for the cascade in finalize — except under
// digest ordering, where deciders serve post-resolution bytes that must
// never sit among the raw proposals (the cascade would re-parse real
// messages as descriptors; a real 16-byte body aliases one): the instance
// is wanted again instead, and fetched in its turn.
func (e *Engine) handleDecisionFull(m message) {
	k := m.Instance
	switch {
	case k <= e.decidedK(): // a late duplicate
	case k == e.decidedK()+1 && e.cfg.DigestOrdering:
		e.decideResolved(e.rounds.Get(k), m.Batch, m.Round)
	case e.cfg.DigestOrdering:
		e.want(types.Nobody, k, m.Round)
	default:
		in := e.rounds.Get(k)
		in.Proposals[m.Round] = m.Batch
		e.want(types.Nobody, k, m.Round)
	}
}

// lookupDecision finds a decided batch in instance memory or the durable
// log.
func (e *Engine) lookupDecision(k uint64) (wire.Batch, bool) {
	if in := e.rounds.Lookup(k); in != nil && in.Decided {
		return in.Decision, true
	}
	if e.cfg.Persist != nil {
		return e.cfg.Persist.ReadDecision(k)
	}
	return nil, false
}

// HandleTimer implements engine.Engine.
func (e *Engine) HandleTimer(id engine.TimerID) {
	switch id {
	case engine.TimerResend:
		if e.rounds.RetryFetch() {
			e.env.SetTimer(engine.TimerResend, e.cfg.ResendEvery)
		}
	case engine.TimerKick:
		e.kick()
	case engine.TimerFlush:
		e.hd.Flush()
	case engine.TimerPayload:
		e.payloadTimer()
	case engine.TimerRecover:
		e.t.RecoverTimer()
	case engine.TimerJoiner:
		if e.rounds.ResendJoiner() {
			e.env.SetTimer(engine.TimerJoiner, e.cfg.ResendEvery)
		}
	}
}

// kick is the idle/stall timer: re-forward own messages and retry
// proposing when nothing has progressed for the configured period.
func (e *Engine) kick() {
	if e.cfg.IdleKick <= 0 {
		return
	}
	now := e.env.Now()
	stalled := now-e.lastProgress >= e.cfg.IdleKick
	if stalled && e.t.Pool.Len() > 0 {
		cur := e.current()
		coord := e.rounds.Coordinator(cur.K, cur.Round)
		if coord == e.self {
			// Digest backstop: peers may hold our descriptors without the
			// payload bytes (lost announce) — re-spread both.
			e.reannounceOwn()
			e.tryPropose()
			// Ring backstop: a stalled open proposal means the relay died
			// mid-ring before any suspicion fired — re-spread it along the
			// current (possibly repaired) ring.
			e.respreadOpen()
		} else {
			// Re-forward everything we still hold.
			e.reannounceOwn()
			batch := e.attachOwn(cur.K, true)
			if len(batch) > 0 {
				e.send(coord, message{Type: mForward, Instance: cur.K, Round: cur.Round, Batch: batch})
				e.env.Counters().Retransmissions.Add(1)
			}
		}
	}
	e.armKick()
}

// armKick re-arms the idle timer while there is anything outstanding.
func (e *Engine) armKick() {
	if e.cfg.IdleKick <= 0 || !e.started {
		return
	}
	if e.t.Pool.Len() > 0 {
		e.env.SetTimer(engine.TimerKick, e.cfg.IdleKick)
	}
}

// Suspect implements engine.Engine: advance the open instances past
// rounds whose coordinator is suspected (the only round-change trigger).
// While catching up after a restart only the suspicion is recorded; the
// advancement runs when recovery finishes.
func (e *Engine) Suspect(p types.ProcessID, suspected bool) {
	e.t.Suspected[p] = suspected
	e.hd.Suspect(p, suspected)
	if e.t.Rec.Active() {
		return
	}
	if !suspected {
		// A cleared suspicion reshapes the ring too: re-spread open
		// proposals so a successor that was wrongly skipped (and whose
		// replacement may have been unreachable) still gets them.
		e.respreadOpen()
		return
	}
	e.rounds.Readvance(0)
	e.tryPropose()
	// The ring just lost a link: immediately re-route open proposals
	// around the suspected successor instead of waiting for the kick.
	e.respreadOpen()
	e.armKick()
}

// payloadBytes sums the application payload carried by one message.
func (m message) payloadBytes() int { return m.Batch.PayloadBytes() + m.Piggyback.PayloadBytes() }

// send marshals and transmits one message, accounting payload bytes and
// whole-message bytes as ordering traffic (OrderedBytes): every §4 message
// exists to order — proposals, acks, estimates, forwards and decision
// traffic are the frames whose size digest ordering collapses to descriptor
// scale. The head and the tail account their own frames (mFrame).
//
// The message is encoded into a pooled writer: Env.Send does not retain it.
func (e *Engine) send(to types.ProcessID, m message) {
	c := e.env.Counters()
	c.PayloadBytesSent.Add(int64(m.payloadBytes()))
	w := m.encode()
	c.OrderedBytes.Add(int64(w.Len()))
	e.env.Send(to, w.Bytes())
	wire.PutWriter(w)
}

// sendAll transmits one message to every other current-view member.
func (e *Engine) sendAll(m message) {
	members := e.t.Hist.Current().Members
	others := e.others()
	e.env.Counters().PayloadBytesSent.Add(int64(m.payloadBytes() * others))
	if others == 0 {
		return
	}
	w := m.encode()
	e.env.Counters().OrderedBytes.Add(int64(w.Len() * others))
	for _, p := range members {
		if p != e.self {
			e.env.Send(p, w.Bytes())
		}
	}
	wire.PutWriter(w)
}

// SubmitConfig implements engine.ConfigSubmitter: the op is submitted
// through the ordinary abcast path — forwarded, proposed and decided
// exactly like an application message.
func (e *Engine) SubmitConfig(op member.Op) (types.MsgID, error) { return e.hd.SubmitConfig(op) }

// CurrentView implements engine.ConfigSubmitter.
func (e *Engine) CurrentView() member.View { return e.t.Hist.Current() }

// Views returns the full decided view sequence (checker support).
func (e *Engine) Views() []member.View { return e.t.Hist.Views() }

var _ engine.ConfigSubmitter = (*Engine)(nil)

// decidedK is the highest instance decided locally; instances decide
// strictly in order (the tail owns the watermark).
func (e *Engine) decidedK() uint64 { return e.t.Next() - 1 }

// host is the Engine seen through head.Host (and so tail.Host): the tail
// and head frames go out as mFrame, a payload-mode relay carries an
// mPropDec, the timers are engine-wide, sealed and announced entries enter
// the pool, and the tail hooks into the in-order decide path. A separate named type keeps these methods off the Engine's public
// surface.
type host Engine

var _ head.Host = (*host)(nil)

// Sealed hands locally submitted entries to the ordering machinery. They
// are NOT diffused: they join the pool and wait for the next ack to the
// coordinator (§4.2), or are forwarded immediately when no consensus is in
// flight to piggyback on; the coordinator/forward step runs once for the
// whole batch, so the piggybacking carries it together.
func (h *host) Sealed(entries wire.Batch) {
	e := (*Engine)(h)
	cur := e.current()
	coord := e.rounds.Coordinator(cur.K, cur.Round)
	var attached uint64 // a coordinating self has them in hand for cur
	if coord == e.self {
		attached = cur.K
	}
	for _, m := range entries {
		// Own messages always join the local pool: inert while another
		// process coordinates, but immediately proposable if this process
		// is (or becomes, after a round change) the coordinator.
		e.t.Pool.Add(m, attached)
	}
	if coord == e.self {
		e.tryPropose()
		e.armKick()
		return
	}
	if e.pipelineIdle && len(cur.Proposals) == 0 && !cur.Decided {
		// The pipeline is stopped, so no ack will come by to piggyback on:
		// forward directly to the coordinator to restart it.
		e.forwardOwn(cur, coord)
	}
	e.armKick()
}

// Announced pools a peer's announced descriptor — its bytes now resident:
// proposable, fetchable, resolvable — and retries a head decision blocked
// on this payload.
func (h *host) Announced(pm wire.AppMsg) {
	e := (*Engine)(h)
	e.t.Pool.Add(pm, 0)
	e.retryBlockedDecide()
	e.tryPropose()
	e.armKick()
}

// Relayed processes a payload-mode ring relay — a proposal — exactly as if
// its origin had sent it directly, unless the head drops it as a duplicate;
// the head forwards it first. Acks, nacks and refetches go straight back to
// the origin, never along the ring.
func (h *host) Relayed(from types.ProcessID, hdr wire.RelayHeader, inner []byte) error {
	m, err := unmarshalMessage(inner)
	if err != nil {
		return err
	}
	if m.Type != mPropDec {
		return fmt.Errorf("relayed %s (only proposals relay)", m.Type)
	}
	if h.hd.Accept(hdr, inner, m.payloadBytes(), true) {
		(*Engine)(h).handlePropDec(hdr.Origin, m)
	}
	return nil
}

// Send puts a tail or head frame on the wire as [mFrame][frame], encoded
// into a pooled writer: env.Send does not retain it.
func (h *host) Send(to types.ProcessID, frame []byte) {
	w := wire.GetWriter(1 + len(frame))
	w.Uint8(byte(mFrame))
	w.Raw(frame)
	defer wire.PutWriter(w)
	if to != types.Nobody {
		h.env.Send(to, w.Bytes())
		return
	}
	for _, p := range h.t.Hist.Current().Members {
		if p != h.self {
			h.env.Send(p, w.Bytes())
		}
	}
}

// engineTimer maps a tail or head timer into the engine-wide namespace.
func engineTimer(id tail.Timer) engine.TimerID {
	switch id {
	case tail.TimerRecover:
		return engine.TimerRecover
	case tail.TimerFlush:
		return engine.TimerFlush
	}
	return engine.TimerPayload
}

func (h *host) SetTimer(id tail.Timer, d time.Duration) { h.env.SetTimer(engineTimer(id), d) }

func (h *host) CancelTimer(id tail.Timer) { h.env.CancelTimer(engineTimer(id)) }

func (h *host) Decision(k uint64) (wire.Batch, bool) { return (*Engine)(h).lookupDecision(k) }

// Decided applies a state-transfer decision through the normal decide
// path; instances decide strictly in order, so anything but the next one
// is dropped. Logged decisions hold resolved batches under digest ordering.
func (h *host) Decided(k uint64, b wire.Batch) {
	e := (*Engine)(h)
	if k != e.decidedK()+1 {
		return
	}
	in := e.rounds.Get(k)
	if e.cfg.DigestOrdering {
		e.decideResolved(in, b, in.Round)
	} else {
		e.decide(in, b, in.Round)
	}
}

func (h *host) Advanced() {
	(*Engine)(h).retryBlockedDecide()
	(*Engine)(h).tryPropose()
}

// Installed drops the round state of every instance the snapshot covers: a
// recovering process must never re-enter instances the cluster settled at
// or below it (the pruned-instance guards serve any late messages for
// them). The tail released the pool entries our proposals there carried.
func (h *host) Installed() {
	h.rounds.DropBelow(h.t.Next())
	h.lastProgress = h.env.Now()
}

// CaughtUp resumes normal operation after catch-up: round advancement
// deferred during recovery happens now, the surviving own backlog is
// pushed toward the coordinator, and the engine may propose again.
func (h *host) CaughtUp() {
	e := (*Engine)(h)
	e.rounds.Readvance(0)
	e.tryPropose()
	e.forwardRecoveredOwn()
	e.armKick()
}

// ViewChanged points the dissemination topology at the view. A view
// applied mid-Commit also schedules the suspicion cascade for after the
// delivery loop; views replayed at construction need none (no instance
// exists yet).
func (h *host) ViewChanged(v member.View) {
	h.hd.SetMembers(v.Members)
	h.viewKick = h.started
}

// The ct.Host answers: the monolithic envelope of the round rules and its
// §4 hooks. A proposal goes out as mPropDec carrying the latest decision
// (§4.1), acks and estimates carry own unordered messages (§4.2), a
// coordinator with no locked value proposes fresh from its pool, and
// decisions apply in instance order. Round changes wait while catching up,
// "pruned" covers everything at or below the watermark (snapshot-installed
// ranges included), and a peer proposing into a settled instance is served
// the decision.
var _ ct.Host = (*host)(nil)

func (h *host) View(k uint64) member.View { return h.t.Hist.At(k) }
func (h *host) Settled(k uint64) bool     { return k <= (*Engine)(h).decidedK() }
func (h *host) Frozen() bool              { return h.t.Rec.Active() }

// Fresh takes the pool slice proposable for instance k: messages not riding
// another in-flight proposal (those assigned to k itself stay eligible: a
// round change within k re-proposes them), of current members only — from
// the moment this process applies a remove, none of its proposals carries
// the origin again, the guarantee that lets the activation boundary retire
// the origin's payload state without wedging a later decide.
func (h *host) Fresh(in *ct.Inst) wire.Batch {
	b := h.t.Pool.Take(in.K, h.t.Hist.Current(), h.cfg.MaxBatch)
	if len(b) > 0 {
		h.env.Counters().ConsensusStarted.Add(1)
	}
	return b
}

func (h *host) Decide(in *ct.Inst, b wire.Batch, r uint32, _ bool) { (*Engine)(h).decide(in, b, r) }

// Cutoff keeps DecisionHorizon decided instances below the watermark (the
// tail prunes the payload and descriptor bookkeeping of the same horizon in
// Commit); 0 keeps everything.
func (h *host) Cutoff() (uint64, bool) {
	hz, dk := uint64(h.cfg.DecisionHorizon), (*Engine)(h).decidedK()
	return dk - hz, hz > 0 && dk > hz
}

// SendProposal partitions the pool first: messages this proposal carries
// must not ride a second concurrent one (decide releases survivors).
func (h *host) SendProposal(in *ct.Inst, r uint32, b wire.Batch) {
	e := (*Engine)(h)
	e.t.Pool.Assign(b, in.K)
	e.propSent++
	e.env.Counters().ObserveDepth(e.openProposals())
	if o := e.cfg.Obs; o != nil {
		now := e.env.Now()
		for _, pm := range b {
			o.Stage(pm.ID, obs.StagePropose, now)
		}
	}
	e.spreadPropDec(e.propDec(in, r, b))
	if e.cfg.ResendEvery > 0 && e.rounds.Admits(in.K) {
		e.env.SetTimer(engine.TimerJoiner, e.cfg.ResendEvery) // a joiner may miss it
	}
}

// ResendProposal goes straight to the member, never along the ring.
func (h *host) ResendProposal(to types.ProcessID, in *ct.Inst, r uint32) {
	e := (*Engine)(h)
	e.send(to, e.propDec(in, r, in.Coord[r].Proposal))
}

// SendAck first fetches a gap: a proposal beyond the pipeline window means
// the proposer decided every instance up to the window below it, which we
// missed (coordinator crash window). Proposals merely ahead within the
// window are normal pipelining, and the decisions they piggyback arrive in
// order on the same FIFO channel.
func (h *host) SendAck(to types.ProcessID, in *ct.Inst, r uint32) {
	e := (*Engine)(h)
	if in.K > e.decidedK()+uint64(e.pipe) {
		e.wantBelow(to, in.K-uint64(e.pipe)+1)
	}
	e.send(to, message{Type: mAckDiff, Instance: in.K, Round: r, Batch: e.attachOwn(in.K, false)})
}

func (h *host) SendNack(to types.ProcessID, k uint64, r uint32) {
	(*Engine)(h).send(to, message{Type: mNack, Instance: k, Round: r})
}

// SendEstimate carries all own unordered messages: the new coordinator
// starts with nothing of ours.
func (h *host) SendEstimate(to types.ProcessID, in *ct.Inst) {
	e := (*Engine)(h)
	e.send(to, message{Type: mEstimate, Instance: in.K, Round: in.Round,
		TS: in.EstTS, HasValue: in.HasEst, Batch: in.Est, Piggyback: e.attachOwn(in.K, true)})
}

func (h *host) SendDecision(to types.ProcessID, in *ct.Inst) {
	(*Engine)(h).send(to, message{Type: mDecisionFull, Instance: in.K, Round: in.DecisionRound, Batch: in.Decision})
}

func (h *host) FetchDecision(to types.ProcessID, k uint64) {
	(*Engine)(h).send(to, message{Type: mDecisionReq, Instance: k})
}

// ServeLate catches up a peer that demonstrably missed a decision (it
// proposed into the instance after this process decided it, or asked):
// response-driven, one message per stale proposal, no broadcasts. Without
// it the proposer would re-propose forever.
func (h *host) ServeLate(to types.ProcessID, in *ct.Inst) {
	h.SendDecision(to, in)
	h.env.Counters().Retransmissions.Add(1)
}

// ServePruned serves the decision of an instance pruned from memory,
// reading it back from the durable log (the round of record is gone with
// the pruned state; the peer's own round stands in — handleDecisionFull
// only needs a consistent label). Without a log the decision is unservable
// here and a better-provisioned peer must answer. Never ack: a lagging
// proposer could assemble a majority for a second, conflicting decision.
func (h *host) ServePruned(to types.ProcessID, k uint64, r uint32) {
	batch, ok := (*Engine)(h).lookupDecision(k)
	if !ok {
		return
	}
	(*Engine)(h).send(to, message{Type: mDecisionFull, Instance: k, Round: r, Batch: batch})
	h.env.Counters().Retransmissions.Add(1)
}
