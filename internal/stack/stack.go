// Package stack is the microprotocol composition framework used by the
// modular atomic broadcast implementation (the role Cactus plays for
// Fortika in the paper).
//
// A stack is an ordered set of layers (microprotocols). Layers interact
// only through:
//
//   - typed service events dispatched by tag (e.g. abcast asks consensus
//     to propose; consensus notifies abcast of a decision) — every such
//     dispatch is counted, because crossing module boundaries is precisely
//     the overhead under study;
//   - the shared network service: each layer sends point-to-point messages
//     tagged with its own identity, and inbound frames are demultiplexed
//     back to the owning layer.
//
// Layers are black boxes to each other: no layer may reach into another's
// state, and the framework offers no way to do so. The monolithic
// implementation (internal/monolithic) does not use this package at all —
// that asymmetry is the experiment.
package stack

import (
	"fmt"
	"time"

	"modab/internal/engine"
	"modab/internal/types"
	"modab/internal/wire"
)

// Tag identifies a layer on the wire and as an event target.
type Tag uint8

// Wire tags of the modular stack's layers.
const (
	TagRBcast    Tag = 1
	TagConsensus Tag = 2
	TagABcast    Tag = 3
)

// String implements fmt.Stringer.
func (t Tag) String() string {
	switch t {
	case TagRBcast:
		return "rbcast"
	case TagConsensus:
		return "consensus"
	case TagABcast:
		return "abcast"
	default:
		return fmt.Sprintf("tag(%d)", uint8(t))
	}
}

// EventKind enumerates the inter-layer service events.
type EventKind uint8

// Service events exchanged between the modular layers.
const (
	// EvBroadcastReq asks the reliable broadcast layer to rbcast Data.
	EvBroadcastReq EventKind = iota + 1
	// EvRDeliver notifies the subscribing layer that Data was rdelivered
	// (From is the rbcast origin).
	EvRDeliver
	// EvProposeReq asks the consensus layer to propose Batch as the local
	// initial value of Instance.
	EvProposeReq
	// EvDecide notifies the subscribing layer that Instance decided Batch.
	EvDecide
	// EvConfig notifies the subscribing layer of a decided membership
	// change: Members is the new view's sorted member set, Instance its
	// activation instance (the first instance it governs). The abcast
	// layer — which processes decisions in total order — emits it to the
	// consensus and rbcast layers, so every layer switches quorum size
	// and relay topology at exactly the same boundary.
	EvConfig
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvBroadcastReq:
		return "broadcast-req"
	case EvRDeliver:
		return "rdeliver"
	case EvProposeReq:
		return "propose-req"
	case EvDecide:
		return "decide"
	case EvConfig:
		return "config"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one inter-layer service event. Fields beyond Kind are
// kind-specific; unused fields are zero.
type Event struct {
	Kind     EventKind
	From     types.ProcessID
	Instance uint64
	Data     []byte
	Batch    wire.Batch
	// Members carries the new view's sorted member set (EvConfig only).
	Members []types.ProcessID
}

// Layer is a microprotocol participating in a stack.
type Layer interface {
	// Tag returns the layer's wire and event-routing identity.
	Tag() Tag
	// Init hands the layer its context. Called once, before Start.
	Init(ctx *Context)
	// Start is called once after every layer is initialized.
	Start()
	// Event handles a service event addressed to this layer.
	Event(ev Event)
	// Receive handles a network message addressed to this layer.
	Receive(from types.ProcessID, data []byte) error
	// Timer fires a layer-local timer previously armed via Context.
	Timer(id engine.TimerID)
	// Suspect updates the failure-detector view.
	Suspect(p types.ProcessID, suspected bool)
}

// timerStride namespaces layer-local timer IDs into the engine-wide space.
const timerStride engine.TimerID = 1 << 20

// Stack composes layers and routes network frames, service events, timers
// and suspicions between them.
type Stack struct {
	env    engine.Env
	layers []Layer
	byTag  map[Tag]*Context
}

// New builds a stack from the given layers (any order; routing is by tag)
// and initializes them. It panics on duplicate tags — that is a
// programming error, not a runtime condition.
func New(env engine.Env, layers ...Layer) *Stack {
	s := &Stack{
		env:    env,
		layers: layers,
		byTag:  make(map[Tag]*Context, len(layers)),
	}
	for i, l := range layers {
		if _, dup := s.byTag[l.Tag()]; dup {
			panic(fmt.Sprintf("stack: duplicate layer tag %s", l.Tag()))
		}
		ctx := &Context{stack: s, layer: l, timerBase: timerStride * engine.TimerID(i+1)}
		s.byTag[l.Tag()] = ctx
		l.Init(ctx)
	}
	return s
}

// Start starts every layer in composition order.
func (s *Stack) Start() {
	for _, l := range s.layers {
		l.Start()
	}
}

// Receive demultiplexes one inbound network frame to its owning layer.
func (s *Stack) Receive(from types.ProcessID, data []byte) error {
	if len(data) < 1 {
		return fmt.Errorf("stack: empty frame from %s", from)
	}
	ctx, ok := s.byTag[Tag(data[0])]
	if !ok {
		return fmt.Errorf("stack: frame for unknown layer tag %d from %s", data[0], from)
	}
	s.env.Counters().Dispatches.Add(1)
	return ctx.layer.Receive(from, data[1:])
}

// Emit dispatches a service event to the layer with the given tag.
func (s *Stack) Emit(target Tag, ev Event) {
	ctx, ok := s.byTag[target]
	if !ok {
		panic(fmt.Sprintf("stack: event %s for unknown layer tag %s", ev.Kind, target))
	}
	s.env.Counters().Dispatches.Add(1)
	ctx.layer.Event(ev)
}

// HandleTimer routes an engine-wide timer ID back to the owning layer.
func (s *Stack) HandleTimer(id engine.TimerID) {
	idx := int(id/timerStride) - 1
	if idx < 0 || idx >= len(s.layers) {
		return // stale timer from a removed layer; ignore
	}
	s.env.Counters().Dispatches.Add(1)
	s.layers[idx].Timer(id % timerStride)
}

// Suspect fans a failure-detector change out to every layer.
func (s *Stack) Suspect(p types.ProcessID, suspected bool) {
	for _, l := range s.layers {
		s.env.Counters().Dispatches.Add(1)
		l.Suspect(p, suspected)
	}
}

// Context is a layer's handle on its stack: network service, event
// dispatch, timers, and the environment. Layers hold it from Init on.
type Context struct {
	stack     *Stack
	layer     Layer
	timerBase engine.TimerID
}

// Env exposes the driver environment (identity, clock, delivery upcall,
// counters).
func (c *Context) Env() engine.Env { return c.stack.env }

// Emit dispatches a service event to another layer.
func (c *Context) Emit(target Tag, ev Event) { c.stack.Emit(target, ev) }

// NetSend transmits a layer message to one peer over the quasi-reliable
// channel, framed with the layer's tag.
func (c *Context) NetSend(to types.ProcessID, payload []byte) {
	c.NetSendMembers([]types.ProcessID{to}, payload)
}

// NetSendMembers transmits a layer message to every process in members
// except the local one. The frame is encoded into a pooled writer, which
// goes back to the pool as soon as it is sent: Env.Send does not retain
// what it is given.
func (c *Context) NetSendMembers(members []types.ProcessID, payload []byte) {
	self, w := c.stack.env.Self(), wire.GetWriter(1+len(payload))
	w.Uint8(byte(c.layer.Tag()))
	w.Raw(payload)
	for _, p := range members {
		if p != self {
			c.stack.env.Send(p, w.Bytes())
		}
	}
	wire.PutWriter(w)
}

// SetTimer arms a layer-local timer.
func (c *Context) SetTimer(id engine.TimerID, d time.Duration) {
	c.stack.env.SetTimer(c.timerBase+id, d)
}

// CancelTimer disarms a layer-local timer.
func (c *Context) CancelTimer(id engine.TimerID) {
	c.stack.env.CancelTimer(c.timerBase + id)
}
