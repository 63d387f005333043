// Package rbcast implements the reliable broadcast microprotocol of the
// modular stack (paper §3.1).
//
// Classical algorithm: the sender sends a copy of m to all processes; on
// receiving m for the first time, every process re-sends m to all. That
// costs about n² messages per broadcast.
//
// Majority optimization (the mode used in the paper's modular stack):
// assuming a majority of processes never crash, only a fixed relay set of
// ⌊(n-1)/2⌋ processes re-sends, giving (n-1)·(⌊(n-1)/2⌋+1) =
// (n-1)·⌊(n+1)/2⌋ messages per broadcast. Together with the origin, the
// relay set forms a majority, so at least one correct process re-sends
// every rdelivered message and all correct processes rdeliver it.
package rbcast

import (
	"fmt"

	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/stack"
	"modab/internal/types"
	"modab/internal/wire"
)

// Mode selects the re-send strategy.
type Mode int

const (
	// Majority uses the relay-set optimization (default in the paper).
	Majority Mode = iota + 1
	// Classic re-sends at every process on first receipt.
	Classic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Majority:
		return "majority"
	case Classic:
		return "classic"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// MessagesPerBroadcast returns the number of point-to-point messages a
// single rbcast generates in a good run for the given group size — the
// quantity used in the paper's §5.2.1 analysis.
func (m Mode) MessagesPerBroadcast(n int) int {
	switch m {
	case Majority:
		return (n - 1) * ((n-1)/2 + 1)
	case Classic:
		return (n - 1) * n
	default:
		return 0
	}
}

// incarnationShift splits the 64-bit wire sequence number into an
// incarnation tag (high 16 bits) and a per-incarnation counter (low 48
// bits). A restarted process broadcasts under a fresh incarnation, so its
// numbering — which necessarily restarts, rbcast state is not persisted —
// is never swallowed by peers' duplicate suppression for its pre-crash
// traffic. Incarnation 0 produces the exact wire bytes of the
// crash-stop protocol.
const incarnationShift = 48

// Layer is the reliable broadcast microprotocol. It accepts
// stack.EvBroadcastReq events and emits stack.EvRDeliver events to the
// subscriber layer.
type Layer struct {
	ctx        *stack.Context
	subscriber stack.Tag
	mode       Mode

	self types.ProcessID
	// members is the current view's sorted member set (updated by
	// stack.EvConfig at decided boundaries). Relay-set selection works in
	// member-rank space, not raw ID space: removing a member closes the
	// ring hole instead of skipping it, and the relay count follows the
	// live view size rather than the boot n.
	members     []types.ProcessID
	incarnation uint64
	nextSeq     uint64
	// seen suppresses duplicates per origin and per origin-incarnation
	// (each incarnation numbers its broadcasts independently).
	seen map[types.ProcessID]map[uint64]*dedup
}

var _ stack.Layer = (*Layer)(nil)

// New returns a reliable broadcast layer that rdelivers to the layer with
// the given tag. incarnation is the number of previous incarnations of
// this process (0 on first boot; the replayed boot-marker count after a
// crash-recovery restart) — it namespaces the broadcast sequence numbers
// this layer stamps on the wire.
func New(subscriber stack.Tag, mode Mode, incarnation uint64) *Layer {
	return &Layer{subscriber: subscriber, mode: mode, incarnation: incarnation}
}

// Tag implements stack.Layer.
func (l *Layer) Tag() stack.Tag { return stack.TagRBcast }

// Init implements stack.Layer.
func (l *Layer) Init(ctx *stack.Context) {
	l.ctx = ctx
	l.self = ctx.Env().Self()
	l.members = member.NewHistory(ctx.Env().N()).Current().Members
	l.seen = make(map[types.ProcessID]map[uint64]*dedup, len(l.members))
}

// Start implements stack.Layer.
func (l *Layer) Start() {}

// Event implements stack.Layer: EvBroadcastReq broadcasts, EvConfig
// switches the member set at a decided boundary. Broadcasts in flight
// across the switch stay reliable: the origin's send already reached
// every member of its view, and the decision-fetch path of the consensus
// layer repairs any rdelivery a relay-set change may have cost.
func (l *Layer) Event(ev stack.Event) {
	switch ev.Kind {
	case stack.EvConfig:
		l.members = append([]types.ProcessID(nil), ev.Members...)
		return
	case stack.EvBroadcastReq:
	default:
		return
	}
	l.nextSeq++
	m := message{origin: l.self, seq: l.incarnation<<incarnationShift | l.nextSeq, payload: ev.Data}
	// The local process rdelivers its own broadcast immediately.
	l.markSeen(m.origin, m.seq)
	l.ctx.Emit(l.subscriber, stack.Event{Kind: stack.EvRDeliver, From: m.origin, Data: m.payload})
	l.sendToOthers(m, types.Nobody)
}

// Receive implements stack.Layer.
func (l *Layer) Receive(from types.ProcessID, data []byte) error {
	m, err := unmarshalMessage(data)
	if err != nil {
		return fmt.Errorf("rbcast: bad message from %s: %w", from, err)
	}
	if l.isSeen(m.origin, m.seq) {
		return nil
	}
	l.markSeen(m.origin, m.seq)
	if l.shouldRelay(m.origin) {
		l.sendToOthers(m, from)
	}
	l.ctx.Emit(l.subscriber, stack.Event{Kind: stack.EvRDeliver, From: m.origin, Data: m.payload})
	return nil
}

// Timer implements stack.Layer; rbcast arms no timers.
func (l *Layer) Timer(engine.TimerID) {}

// Suspect implements stack.Layer; rbcast ignores the failure detector.
func (l *Layer) Suspect(types.ProcessID, bool) {}

// shouldRelay reports whether the local process re-sends broadcasts
// originated by origin.
func (l *Layer) shouldRelay(origin types.ProcessID) bool {
	if l.mode == Classic {
		return true
	}
	// Relay set: the ⌊(n-1)/2⌋ members following the origin in member-rank
	// ring order. Origin plus relay set is a majority of the view. A
	// non-member never relays, and broadcasts from a non-member origin (a
	// removed process draining) are not relayed either — the origin's own
	// send-to-all plus the decision-fetch path cover them.
	n := len(l.members)
	ro, rs := -1, -1
	for i, p := range l.members {
		if p == origin {
			ro = i
		}
		if p == l.self {
			rs = i
		}
	}
	if ro < 0 || rs < 0 {
		return false
	}
	relays := (n - 1) / 2
	d := (rs - ro + n) % n
	return d >= 1 && d <= relays
}

// sendToOthers transmits m to every current member except self. The
// textbook algorithm (and the paper's §5.2.1 message count) re-sends to
// all n-1 other processes, including the origin.
func (l *Layer) sendToOthers(m message, relayedFrom types.ProcessID) {
	sends := 0
	for _, p := range l.members {
		if p != l.self {
			sends++
		}
	}
	if relayedFrom != types.Nobody {
		l.ctx.Env().Counters().Retransmissions.Add(int64(sends))
	}
	w := wire.GetWriter(16 + len(m.payload))
	m.marshalTo(w)
	l.ctx.NetSendMembers(l.members, w.Bytes())
	wire.PutWriter(w)
}

// message is the rbcast wire unit.
type message struct {
	origin  types.ProcessID
	seq     uint64
	payload []byte
}

func (m message) marshalTo(w *wire.Writer) {
	w.Int32(int32(m.origin))
	w.Uint64(m.seq)
	w.Raw(m.payload)
}

func unmarshalMessage(data []byte) (message, error) {
	r := wire.NewReader(data)
	var m message
	m.origin = types.ProcessID(r.Int32())
	m.seq = r.Uint64()
	m.payload = r.Rest()
	if err := r.Err(); err != nil {
		return message{}, err
	}
	return m, nil
}

// dedup suppresses duplicate (origin, incarnation, seq) triples with a
// contiguous watermark plus a sparse set for out-of-order arrivals, so
// memory stays bounded on long runs. Each origin incarnation numbers its
// broadcasts contiguously from 1, so the watermark keeps advancing across
// restarts instead of wedging on the inter-incarnation gap.
type dedup struct {
	watermark uint64
	sparse    map[uint64]struct{}
}

func (l *Layer) dedupFor(origin types.ProcessID, inc uint64) *dedup {
	byInc := l.seen[origin]
	if byInc == nil {
		byInc = make(map[uint64]*dedup, 1)
		l.seen[origin] = byInc
	}
	d := byInc[inc]
	if d == nil {
		d = &dedup{sparse: make(map[uint64]struct{})}
		byInc[inc] = d
	}
	return d
}

// splitSeq separates a wire sequence number into its incarnation tag and
// per-incarnation counter.
func splitSeq(seq uint64) (inc, ctr uint64) {
	return seq >> incarnationShift, seq & (1<<incarnationShift - 1)
}

func (l *Layer) isSeen(origin types.ProcessID, seq uint64) bool {
	inc, ctr := splitSeq(seq)
	d := l.dedupFor(origin, inc)
	if ctr <= d.watermark {
		return true
	}
	_, ok := d.sparse[ctr]
	return ok
}

func (l *Layer) markSeen(origin types.ProcessID, seq uint64) {
	inc, ctr := splitSeq(seq)
	d := l.dedupFor(origin, inc)
	if ctr <= d.watermark {
		return
	}
	d.sparse[ctr] = struct{}{}
	for {
		if _, ok := d.sparse[d.watermark+1]; !ok {
			break
		}
		delete(d.sparse, d.watermark+1)
		d.watermark++
	}
}
