// Package runtime is the real-time driver for the atomic broadcast
// engines: one Node per process, with a single-goroutine event loop that
// serializes transport deliveries, timer fires, failure-detector changes
// and application abcasts into the engine — the same calls the simulator
// makes in virtual time, so protocol code is shared verbatim. Every input
// reaches the loop as a typed event through one bounded inbox, which the
// loop drains a batch at a time.
//
// A node has no delivery stream of its own: each adelivery is applied to
// the state machine and then handed to Options.OnDeliver on the event
// loop itself, so the driver's sink (the facade's stream hub) is the only
// hop between the engine and a subscriber.
//
// Frames on the wire carry a one-byte channel tag so protocol traffic and
// failure-detector heartbeats can share one transport.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"modab/internal/engine"
	"modab/internal/fd"
	"modab/internal/member"
	"modab/internal/modular"
	"modab/internal/monolithic"
	"modab/internal/recovery"
	"modab/internal/rsm"
	"modab/internal/trace"
	"modab/internal/transport"
	"modab/internal/types"
	"modab/internal/wire"
)

// The failure detector's timing, the same for every node: a heartbeat to
// each member every HeartbeatPeriod, and suspicion after SuspectTimeout
// without traffic from a member. No workload or figure varies them.
const (
	HeartbeatPeriod = 25 * time.Millisecond
	SuspectTimeout  = 200 * time.Millisecond
)

// Frame channel tags.
const (
	chanEngine byte = 0
	chanFD     byte = 1
	// chanJoin carries a join request: a process not yet in the group asks
	// a member to submit its admission (member.EncodeOp body). Fire-and-
	// forget; the joiner retries until it sees itself in the view.
	chanJoin byte = 2
)

// Options configures a Node.
type Options struct {
	// Incarnation is what the node boots from through recovery.Boot: Self
	// and the boot group size N (required), the engine configuration (zero
	// tunables mean engine.DefaultConfig(N)), the write-ahead log and the
	// state machine with its snapshot store and cadence. The node supplies
	// Counters and Now itself. It owns Store from here on and closes it on
	// Close; the on-disk log survives for the next incarnation.
	recovery.Incarnation
	// Stack selects the implementation. Required.
	Stack types.Stack
	// Transport is the quasi-reliable channel endpoint. Required.
	Transport transport.Transport
	// OnDeliver, when non-nil, is the node's one delivery sink: it is
	// called synchronously on the event loop for every adelivery, in
	// order, after the state machine applied it. A callback that blocks
	// stalls the engine — that is the backpressure path (the facade
	// publishes into its delivery streams here). It must not call back
	// into the Node.
	OnDeliver func(d engine.Delivery)
	// OnConfig, when non-nil, observes every applied membership view (in
	// delivery order, on the event loop — it must not call back into the
	// Node). The node itself already retargets its failure detector;
	// drivers use the hook to spawn joiners, decommission removed
	// processes, and grow transport address tables (op.Addr carries a
	// joiner's address).
	OnConfig func(v member.View, op member.Op)
}

// Node is one running process of the group.
type Node struct {
	opts Options
	eng  stackEngine
	env  *nodeEnv
	det  *fd.Heartbeat
	tr   transport.Transport
	// applier is the state machine applier (Options.StateMachine);
	// deliveries feed it synchronously on the event loop.
	applier *rsm.Applier

	inbox   *transport.Queue[event]
	stopped chan struct{} // closed when the loop has returned

	mu     sync.Mutex
	closed bool

	// The flow-control wakeup. winSeq counts the adeliveries of this node's
	// own messages (written under winMu); winCh exists only while an Abcast
	// is parked on a full window, and the next such adelivery closes it — a
	// broadcast that wakes every parked call so it can retry.
	winMu  sync.Mutex
	winSeq atomic.Uint64
	winCh  chan struct{}
}

// stackEngine is what a node drives: either stack takes config ops.
type stackEngine interface {
	engine.Engine
	engine.ConfigSubmitter
}

// NewNode builds and starts a node: the engine starts, the transport
// begins delivering, and the failure detector begins monitoring.
func NewNode(opts Options) (*Node, error) {
	if opts.N < 1 {
		return nil, types.ErrEmptyGroup
	}
	if opts.Transport == nil {
		return nil, fmt.Errorf("%w: transport required", types.ErrBadConfig)
	}
	if opts.Engine.N == 0 {
		def := engine.DefaultConfig(opts.N)
		def.Obs, def.InitialView = opts.Engine.Obs, opts.Engine.InitialView
		opts.Engine = def
	}
	if err := opts.Engine.Validate(); err != nil {
		return nil, err
	}
	n := &Node{
		tr:      opts.Transport,
		inbox:   transport.NewQueue[event](inboxLimit),
		stopped: make(chan struct{}),
	}
	n.env = &nodeEnv{node: n, start: time.Now(), timers: make(map[engine.TimerID]*timerState)}
	opts.Counters, opts.Now = &n.env.counters, n.env.Now
	cfg, app, err := recovery.Boot(opts.Incarnation)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	n.applier, opts.Engine = app, cfg
	opts.Engine.OnConfig = func(v member.View, op member.Op) {
		// Keep the failure detector pointed at the current members: removed
		// processes stop being suspected (and their suspicion state is
		// pruned), joiners start being monitored.
		n.det.SetMembers(v.Members)
		if fn := opts.OnConfig; fn != nil {
			fn(v, op)
		}
	}
	n.opts = opts
	switch opts.Stack {
	case types.Modular:
		n.eng = modular.New(n.env, opts.Engine)
	case types.Monolithic:
		n.eng = monolithic.New(n.env, opts.Engine)
	default:
		return nil, fmt.Errorf("%w: unknown stack %v", types.ErrBadConfig, opts.Stack)
	}

	n.det = fd.NewHeartbeat(opts.Self, opts.N, HeartbeatPeriod, SuspectTimeout,
		func(to types.ProcessID) {
			_ = n.tr.Send(to, []byte{chanFD})
		})
	// Monitor the current members — a joiner's admitting view, or the view
	// a restart restored — not the (possibly long-replaced) boot group.
	n.det.SetMembers(n.eng.CurrentView().Members)

	go n.run()

	// A transport that gauges its send queues (TCP) counts into the node's
	// counters, so the snapshot and /metrics show them.
	if g, ok := n.tr.(interface{ SetCounters(*trace.Counters) }); ok {
		g.SetCounters(&n.env.counters)
	}
	if err := n.tr.Start(n.onFrame); err != nil {
		n.shutdownLoop()
		if opts.Store != nil {
			_ = opts.Store.Close()
		}
		return nil, err
	}
	n.det.Start(func(p types.ProcessID, suspected bool) {
		n.post(event{kind: evSuspect, from: p, suspected: suspected})
	})
	n.post(event{kind: evCall, call: n.eng.Start})
	return n, nil
}

// inboxLimit bounds the events queued for the loop; a producer (a TCP
// reader, a timer, a submitter) blocks while the inbox is full.
const inboxLimit = 1024

type eventKind uint8

const (
	evFrame   eventKind = iota // an engine frame from a peer
	evTimer                    // an engine timer's fire
	evAbcast                   // an application submission
	evSuspect                  // a failure-detector change
	evConfig                   // a join request to sponsor
	evCall                     // anything else: Start, CurrentView, SubmitConfig
)

// event is one input of the engine, queued on the inbox and run by the
// loop in arrival order. Only kind's fields are set.
type event struct {
	kind      eventKind
	suspected bool            // evSuspect
	from      types.ProcessID // evFrame, evSuspect
	timer     engine.TimerID  // evTimer
	// data is the frame's engine payload (evFrame), the body to broadcast
	// (evAbcast) or the encoded op (evConfig).
	data  []byte
	reply chan submitted // evAbcast
	call  func()         // evCall
}

// submitted is the outcome of a submission: an evAbcast, or SubmitConfig.
type submitted struct {
	id  types.MsgID
	err error
}

// replies recycles the one-slot channels submissions wait on.
var replies = sync.Pool{New: func() any { return make(chan submitted, 1) }}

// run is the event loop: every engine interaction happens here.
func (n *Node) run() {
	defer close(n.stopped)
	n.inbox.Run(n.handle)
}

// post queues ev for the loop; it is dropped if the node is closed
// (equivalent to a message lost at crash time).
func (n *Node) post(ev event) { n.inbox.Put(ev, nil) }

// handle runs one event on the loop.
func (n *Node) handle(ev event) {
	switch ev.kind {
	case evFrame:
		// Malformed frames are dropped; quasi-reliable channels do not
		// corrupt, so this only fires on version mismatch.
		_ = n.eng.HandleMessage(ev.from, ev.data)
	case evTimer:
		n.env.expire(ev.timer)
	case evAbcast:
		id, err := n.eng.Abcast(ev.data)
		ev.reply <- submitted{id, err}
	case evSuspect:
		n.eng.Suspect(ev.from, ev.suspected)
	case evConfig:
		// Submit the joiner's OpAdd on its behalf; duplicates (retries
		// racing the in-flight decide) fall out of the epoch CAS, and
		// rejections are silent — the joiner keeps retrying until it sees
		// itself in the view.
		op, ok := member.DecodeOp(ev.data)
		if ok && op.Kind == member.OpAdd && !n.eng.CurrentView().Contains(op.Target) {
			_, _ = n.eng.SubmitConfig(op)
		}
	case evCall:
		ev.call()
	}
}

// onFrame routes one transport frame.
func (n *Node) onFrame(from types.ProcessID, data []byte) {
	if len(data) < 1 {
		return
	}
	n.det.Heard(from) // any traffic is a sign of life
	switch data[0] {
	case chanFD:
		// Heartbeat: nothing beyond Heard.
	case chanEngine:
		n.post(event{kind: evFrame, from: from, data: data[1:]})
	case chanJoin:
		// A non-member asks us to sponsor its admission.
		n.post(event{kind: evConfig, data: data[1:]})
	}
}

// TryAbcast submits one payload for total-order broadcast without
// waiting on flow control: it returns types.ErrFlowControl when the
// window is full and types.ErrStopped on a closed node. It is the only
// entry point that surfaces ErrFlowControl.
func (n *Node) TryAbcast(body []byte) (types.MsgID, error) {
	id, err, _ := n.submit(body, nil)
	return id, err
}

// submit runs one engine.Abcast on the event loop. cancel (may be nil)
// aborts the wait at any point — including while the submission is still
// queued behind a busy or stalled loop; ok=false then means the caller's
// context ended and the outcome is unknown (the submission may still be
// admitted when the loop gets to it).
func (n *Node) submit(body []byte, cancel <-chan struct{}) (id types.MsgID, err error, ok bool) {
	reply := replies.Get().(chan submitted)
	if !n.inbox.Put(event{kind: evAbcast, data: body, reply: reply}, cancel) {
		replies.Put(reply)
		select {
		case <-cancel:
			return types.MsgID{}, nil, false
		default: // the inbox closed
			return types.MsgID{}, types.ErrStopped, true
		}
	}
	// The reply goes back to the pool only once it was received from: a
	// caller that gives up leaves it to the loop's late send.
	select {
	case r := <-reply:
		replies.Put(reply)
		return r.id, r.err, true
	case <-cancel:
		return types.MsgID{}, nil, false
	case <-n.stopped:
		return types.MsgID{}, types.ErrStopped, true
	}
}

// Abcast submits one payload for total-order broadcast — the paper's
// blocking abcast. When the flow-control window is full it parks until a
// delivery of one of this node's own messages frees the window (a
// condition broadcast, not a poll), the context is canceled (returning
// ctx.Err()), or the node stops (returning types.ErrStopped).
//
// Cancellation that fires after the submission already reached the event
// loop cannot retract it: the message may still be broadcast even though
// Abcast returns ctx.Err() (the usual at-most-once ambiguity of any
// canceled submission).
func (n *Node) Abcast(ctx context.Context, body []byte) (types.MsgID, error) {
	for {
		if err := ctx.Err(); err != nil {
			return types.MsgID{}, err
		}
		// Read the own-delivery count before trying: a delivery between the
		// failed try and the wait then shows up as a moved count, so no
		// wakeup is ever lost.
		seq := n.winSeq.Load()
		id, err, ok := n.submit(body, ctx.Done())
		if !ok {
			return types.MsgID{}, ctx.Err()
		}
		if !errors.Is(err, types.ErrFlowControl) {
			return id, err
		}
		wait := n.windowWait(seq)
		if wait == nil {
			continue // the window already moved
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return types.MsgID{}, ctx.Err()
		case <-n.stopped:
			return types.MsgID{}, types.ErrStopped
		}
	}
}

// windowWait registers a parked Abcast: the returned channel is closed the
// next time one of this node's own messages is adelivered (the flow-control
// window may have room again). It is nil if that already happened since the
// caller read seq.
func (n *Node) windowWait(seq uint64) <-chan struct{} {
	n.winMu.Lock()
	defer n.winMu.Unlock()
	if n.winSeq.Load() != seq {
		return nil
	}
	if n.winCh == nil {
		n.winCh = make(chan struct{})
	}
	return n.winCh
}

// windowPulse records an own adelivery and wakes every parked Abcast.
func (n *Node) windowPulse() {
	n.winMu.Lock()
	n.winSeq.Add(1)
	if n.winCh != nil {
		close(n.winCh)
		n.winCh = nil
	}
	n.winMu.Unlock()
}

// onLoop runs fn on the event loop and returns its result; ok is false
// when the node stopped before fn ran.
func onLoop[T any](n *Node, fn func() T) (v T, ok bool) {
	ch := make(chan T, 1)
	n.post(event{kind: evCall, call: func() { ch <- fn() }})
	select {
	case v = <-ch:
		return v, true
	case <-n.stopped:
		return v, false
	}
}

// Counters returns a snapshot of the node's instrumentation.
func (n *Node) Counters() trace.Snapshot { return n.env.counters.Snapshot() }

// Applier returns the node's state machine applier, or nil when the node
// runs without Options.StateMachine. Applications read applied results,
// await their writes, and take state digests through it.
func (n *Node) Applier() *rsm.Applier { return n.applier }

// SubmitConfig submits a membership change (add or remove) for total
// ordering. The op rides the ordinary abcast path: it decides in some
// consensus instance and activates a pipeline window later, at which
// point every process switches views at the same instance (OnConfig
// fires). Like TryAbcast it surfaces types.ErrFlowControl when the
// window is full — callers retry.
func (n *Node) SubmitConfig(op member.Op) (types.MsgID, error) {
	r, ok := onLoop(n, func() submitted {
		id, err := n.eng.SubmitConfig(op)
		return submitted{id, err}
	})
	if !ok {
		return types.MsgID{}, types.ErrStopped
	}
	return r.id, r.err
}

// RequestJoin asks an existing member to sponsor this node's admission:
// an OpAdd naming this process, with addr the address peers should dial
// (grown into their transport tables at activation). Fire-and-forget —
// callers retry on an interval until CurrentView contains this node.
func (n *Node) RequestJoin(sponsor types.ProcessID, addr string) error {
	op := member.Op{Kind: member.OpAdd, Target: n.opts.Self, Addr: addr}
	return n.tr.Send(sponsor, append([]byte{chanJoin}, member.EncodeOp(op)...))
}

// CurrentView returns the newest locally applied membership view (the
// zero view once the node stopped).
func (n *Node) CurrentView() member.View {
	v, _ := onLoop(n, n.eng.CurrentView)
	return v
}

// Close stops the node: detector, transport, event loop.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()

	n.det.Close()
	err := n.tr.Close()
	// Stop the loop: the currently-executing event finishes, including its
	// synchronous OnDeliver calls, so every delivery that was counted has
	// reached the sink when this returns; queued but unexecuted events are
	// dropped (crash-equivalent) and never counted anything, and producers
	// blocked on the full inbox are released.
	// A sink blocked for good — a Block-policy subscriber neither drained
	// nor closed — stalls this wait; that is the same contract violation
	// that stalls the engine itself (see package stream).
	n.shutdownLoop()
	n.env.stopTimers() // a fire from here on finds the inbox closed
	// The loop has stopped, so no append can race the store closing; the
	// final sync makes even SyncNone logs durable across a graceful stop.
	if n.opts.Store != nil {
		if serr := n.opts.Store.Close(); err == nil {
			err = serr
		}
	}
	return err
}

func (n *Node) shutdownLoop() {
	n.inbox.Close()
	<-n.stopped
}

// timerState is one engine timer: a time.Timer that only queues an evTimer
// event, the deadline the engine asked for and the instant the timer is set
// to fire (zero: none, not known to be pending). A re-arm to a later
// deadline leaves the timer alone — its early fire re-arms for the rest —
// and a cancel only clears the deadline, so a stale fire is dropped.
type timerState struct {
	timer    *time.Timer
	deadline time.Time
	armed    time.Time
}

// nodeEnv implements engine.Env on real time.
type nodeEnv struct {
	node     *Node
	start    time.Time
	counters trace.Counters
	timers   map[engine.TimerID]*timerState // touched only by the loop, and by Close after it
}

var _ engine.Env = (*nodeEnv)(nil)

func (e *nodeEnv) Self() types.ProcessID     { return e.node.opts.Self }
func (e *nodeEnv) N() int                    { return e.node.opts.N }
func (e *nodeEnv) Now() time.Duration        { return time.Since(e.start) }
func (e *nodeEnv) Counters() *trace.Counters { return &e.counters }

// Send frames data for the transport in a pooled buffer, recycled at
// once: like every Env it does not retain data, and Transport.Send does
// not retain its argument either (the in-memory network and TCP's send
// queue both copy it).
func (e *nodeEnv) Send(to types.ProcessID, data []byte) {
	if to == e.node.opts.Self {
		return
	}
	w := wire.GetWriter(1 + len(data))
	w.Uint8(chanEngine)
	w.Raw(data)
	e.counters.MsgsSent.Add(1)
	e.counters.BytesSent.Add(int64(len(data)))
	_ = e.node.tr.Send(to, w.Bytes()) // send failures = crash-stop message loss
	wire.PutWriter(w)
}

func (e *nodeEnv) SetTimer(id engine.TimerID, d time.Duration) {
	st := e.timers[id]
	if st == nil {
		st = &timerState{}
		e.timers[id] = st
	}
	st.deadline = time.Now().Add(d) // before arming: the fire is never earlier
	if !st.armed.IsZero() && !st.deadline.Before(st.armed) {
		return // the pending fire comes early, and expire re-arms it
	}
	st.armed = st.deadline
	if st.timer == nil {
		st.timer = time.AfterFunc(d, func() { e.node.post(event{kind: evTimer, timer: id}) })
	} else {
		st.timer.Reset(d)
	}
}

// expire hands a fire to the engine if the deadline it was armed for has
// come, and re-arms a fire that came early for the remainder.
func (e *nodeEnv) expire(id engine.TimerID) {
	st := e.timers[id]
	now := time.Now()
	st.armed = time.Time{}
	switch {
	case st.deadline.IsZero():
	case now.Before(st.deadline):
		st.armed = st.deadline
		st.timer.Reset(st.deadline.Sub(now))
	default:
		st.deadline = time.Time{}
		e.node.eng.HandleTimer(id)
	}
}

func (e *nodeEnv) CancelTimer(id engine.TimerID) {
	if st := e.timers[id]; st != nil {
		st.deadline = time.Time{}
	}
}

func (e *nodeEnv) stopTimers() {
	for _, st := range e.timers {
		st.deadline = time.Time{}
		st.timer.Stop()
	}
}

func (e *nodeEnv) Deliver(d engine.Delivery) {
	// The state machine applies synchronously in the delivery path, before
	// the sink observes the message — an Await that resolves implies the
	// local replica reflects the write (read-your-writes).
	if e.node.applier != nil {
		e.node.applier.Apply(d)
	}
	if d.Msg.ID.Sender == e.node.opts.Self {
		e.node.windowPulse()
	}
	if fn := e.node.opts.OnDeliver; fn != nil {
		fn(d)
	}
}
