// Package member implements dynamic group membership for both atomic
// broadcast stacks. A configuration change is an ordinary application
// message whose body carries a magic-prefixed Op; it rides the total
// order like any other payload, is decided in a consensus instance, and
// takes effect at a decided boundary: an op decided in instance k
// activates at instance k+W (W = consensus pipeline depth), so every
// process — including ones still catching up — switches quorum size, FD
// monitor set, ring successor order and flow/retention accounting at
// exactly the same instance.
//
// Safety rests on three rules enforced here:
//
//   - Single-member ops. One Op adds or removes exactly one process, so
//     adjacent configurations differ by at most one member and any
//     majority of the old view intersects any majority of the new view.
//   - Epoch CAS. An Op carries the epoch it was issued against; it
//     applies only if that epoch is still current when the op's instance
//     decides. Concurrent config changes therefore serialize through the
//     total order: the first to decide wins, later ones are
//     deterministically rejected at every process. The same rule makes
//     replaying a decided op during crash recovery idempotent.
//   - Delayed activation. The window [k+1, k+W] between decision and
//     activation covers the consensus pipeline: no instance that may
//     already be in flight under the old view can straddle the boundary.
package member

import (
	"encoding/binary"
	"fmt"
	"slices"

	"modab/internal/types"
)

// OpKind discriminates the two primitive configuration changes. A
// "replace" is not a primitive: it is an Add followed by a Remove, two
// decided instances apart, so views always differ by one member.
type OpKind uint8

const (
	// OpAdd admits Target into the group at the activation boundary.
	OpAdd OpKind = 1
	// OpRemove retires Target from the group at the activation boundary.
	OpRemove OpKind = 2
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	default:
		return fmt.Sprintf("opkind(%d)", uint8(k))
	}
}

// Op is one configuration change. It is encoded into an AppMsg body
// (EncodeOp) and submitted through the normal abcast path, so it is
// batched, diffused, decided and replayed exactly like application
// traffic — no new agreement machinery, no separate wire format.
type Op struct {
	// Kind selects add or remove.
	Kind OpKind
	// Target is the process joining or leaving.
	Target types.ProcessID
	// BaseEpoch is the epoch the issuer observed when submitting; the op
	// applies only if the group is still in that epoch when it decides
	// (compare-and-swap against concurrent reconfigurations).
	BaseEpoch uint64
	// Addr optionally carries the joiner's network address for drivers
	// with real transports (the TCP runtime); in-memory drivers leave it
	// empty.
	Addr string
}

// String implements fmt.Stringer.
func (o Op) String() string {
	return fmt.Sprintf("cfg{%s %s @e%d}", o.Kind, o.Target, o.BaseEpoch)
}

// opMagic prefixes every encoded Op. Application payloads beginning
// with these eight bytes are reserved for the membership layer; the
// leading NUL keeps any text-like payload out of the namespace.
var opMagic = []byte{0x00, 'M', 'B', 'R', 'C', 'F', 'G', 0x01}

const maxAddrLen = 1 << 12

// EncodeOp serializes an Op into an AppMsg body.
func EncodeOp(op Op) []byte {
	b := make([]byte, 0, len(opMagic)+1+4+8+2+len(op.Addr))
	b = append(b, opMagic...)
	b = append(b, byte(op.Kind))
	b = binary.BigEndian.AppendUint32(b, uint32(op.Target))
	b = binary.BigEndian.AppendUint64(b, op.BaseEpoch)
	b = binary.BigEndian.AppendUint16(b, uint16(len(op.Addr)))
	b = append(b, op.Addr...)
	return b
}

// IsConfigOp reports whether an AppMsg body is an encoded membership Op.
func IsConfigOp(body []byte) bool {
	return len(body) >= len(opMagic) && string(body[:len(opMagic)]) == string(opMagic)
}

// DecodeOp parses an encoded Op. ok is false when the body is not a
// config op or is malformed (malformed ops are ignored by the engines:
// a corrupt config change must not split the group).
func DecodeOp(body []byte) (Op, bool) {
	if !IsConfigOp(body) {
		return Op{}, false
	}
	rest := body[len(opMagic):]
	if len(rest) < 1+4+8+2 {
		return Op{}, false
	}
	op := Op{
		Kind:      OpKind(rest[0]),
		Target:    types.ProcessID(int32(binary.BigEndian.Uint32(rest[1:5]))),
		BaseEpoch: binary.BigEndian.Uint64(rest[5:13]),
	}
	alen := int(binary.BigEndian.Uint16(rest[13:15]))
	if alen > maxAddrLen || len(rest) != 15+alen {
		return Op{}, false
	}
	op.Addr = string(rest[15 : 15+alen])
	if op.Kind != OpAdd && op.Kind != OpRemove {
		return Op{}, false
	}
	if op.Target < 0 {
		return Op{}, false
	}
	return op, true
}

// View is one group configuration: the member set in force from
// instance Activation (inclusive) until the next view's activation.
type View struct {
	// Epoch numbers views densely from 0 (the static boot configuration).
	Epoch uint64
	// Activation is the first consensus instance governed by this view.
	Activation uint64
	// Members is the sorted member set.
	Members []types.ProcessID
}

// Contains reports whether p is a member of the view.
func (v View) Contains(p types.ProcessID) bool {
	for _, m := range v.Members {
		if m == p {
			return true
		}
	}
	return false
}

// Majority returns the quorum size of this view.
func (v View) Majority() int { return types.Majority(len(v.Members)) }

// Coordinator returns the coordinator of round r (1-based) under this
// view: members are rotated in sorted order. For the boot view
// {0..n-1} this degenerates to the paper's (r-1) mod n rule, so static
// groups behave bit-identically to the fixed-membership code.
func (v View) Coordinator(r uint32) types.ProcessID {
	return v.Members[(int(r)-1)%len(v.Members)]
}

// Stamp prepares op for submission under this view: it rejects an op that
// cannot apply (a negative or already-present add target, an absent remove
// target, a remove that would empty the group) and stamps the view's epoch
// — the compare-and-swap that makes concurrent and replayed ops
// idempotent when History.Apply evaluates them in the total order.
func (v View) Stamp(op Op) (Op, error) {
	op.BaseEpoch = v.Epoch
	switch {
	case op.Kind == OpAdd && op.Target >= 0 && !v.Contains(op.Target):
	case op.Kind == OpRemove && v.Contains(op.Target) && len(v.Members) > 1:
	default:
		return Op{}, types.ErrBadConfig
	}
	return op, nil
}

// Others returns the number of members other than self: the broadcast
// fan-out. A process being removed (no longer a member) still counts
// every member.
func (v View) Others(self types.ProcessID) int {
	n := 0
	for _, m := range v.Members {
		if m != self {
			n++
		}
	}
	return n
}

// NextPeer rotates a single-target retry cursor: the first unsuspected
// member after prev (wrapping, never self) or, with everyone suspected,
// the next member regardless — suspicion can be wrong, and an unanswered
// request only costs one resend period. It returns types.Nobody when self
// has no peers. For the static boot view this is the (prev+1+i) mod n walk.
func (v View) NextPeer(self, prev types.ProcessID, suspected map[types.ProcessID]bool) types.ProcessID {
	start := 0
	for i, m := range v.Members {
		if m > prev {
			start = i
			break
		}
	}
	fallback := types.Nobody
	for i := range v.Members {
		m := v.Members[(start+i)%len(v.Members)]
		if m == self {
			continue
		}
		if !suspected[m] {
			return m
		}
		if fallback == types.Nobody {
			fallback = m
		}
	}
	return fallback
}

// MaxID returns the largest member ID of the view.
func (v View) MaxID() types.ProcessID {
	return v.Members[len(v.Members)-1]
}

// clone returns a deep copy of the member slice.
func (v View) clone() []types.ProcessID {
	return append([]types.ProcessID(nil), v.Members...)
}

// History is the totally ordered sequence of views a process has
// decided. Both engines own one and consult it per instance: quorum
// checks, coordinator rotation and send fan-out for instance k all go
// through At(k), never through a cached n — that cached n is exactly
// the bug class this package exists to fix.
type History struct {
	views []View
}

// NewHistory returns a history whose epoch-0 view is the static boot
// group {0..n-1} active from instance 0.
func NewHistory(n int) *History {
	members := make([]types.ProcessID, n)
	for i := range members {
		members[i] = types.ProcessID(i)
	}
	return &History{views: []View{{Epoch: 0, Activation: 0, Members: members}}}
}

// NewHistoryFrom returns a history seeded with an explicit boot view —
// how a joiner starts from config-at-join instead of from epoch 0 —
// followed by the newer of the views after it (see Adopt).
func NewHistoryFrom(seed View, more ...View) *History {
	seed.Members = seed.clone()
	slices.Sort(seed.Members)
	h := &History{views: []View{seed}}
	for _, v := range more {
		h.Adopt(v)
	}
	return h
}

// Current returns the newest view.
func (h *History) Current() View { return h.views[len(h.views)-1] }

// Adopt appends v when it is newer than the current view and reports
// whether it did: how a restart or a snapshot install restores views
// decided elsewhere, skipping (by epoch) the ones already held.
func (h *History) Adopt(v View) bool {
	if v.Epoch <= h.Current().Epoch {
		return false
	}
	v.Members = v.clone()
	h.views = append(h.views, v)
	return true
}

// At returns the view governing consensus instance k: the newest view
// with Activation <= k.
func (h *History) At(k uint64) View {
	for i := len(h.views) - 1; i >= 0; i-- {
		if h.views[i].Activation <= k {
			return h.views[i]
		}
	}
	// Instances below the seed view's activation (possible only on a
	// joiner looking backwards) are governed by the seed view.
	return h.views[0]
}

// Views returns a copy of the full view sequence (checker support: the
// chaos harness asserts all correct processes record identical
// epoch → activation maps).
func (h *History) Views() []View {
	out := make([]View, len(h.views))
	for i, v := range h.views {
		out[i] = v
		out[i].Members = v.clone()
	}
	return out
}

// Apply attempts to apply an op decided in instance decidedAt, with the
// engine's pipeline window W. On success it appends and returns the new
// view (activating at decidedAt+W, but never at or before the current
// view's activation) and true. It returns false — deterministically, as
// every correct process evaluates the same op against the same history
// — when the op's epoch CAS fails, the add target is already a member,
// the remove target is not a member, or the remove would empty the
// group.
func (h *History) Apply(op Op, decidedAt uint64, window int) (View, bool) {
	cur := h.Current()
	if op.BaseEpoch != cur.Epoch {
		return View{}, false
	}
	var members []types.ProcessID
	switch op.Kind {
	case OpAdd:
		if cur.Contains(op.Target) {
			return View{}, false
		}
		members = append(cur.clone(), op.Target)
		slices.Sort(members)
	case OpRemove:
		if !cur.Contains(op.Target) || len(cur.Members) <= 1 {
			return View{}, false
		}
		members = make([]types.ProcessID, 0, len(cur.Members)-1)
		for _, m := range cur.Members {
			if m != op.Target {
				members = append(members, m)
			}
		}
	default:
		return View{}, false
	}
	if window < 1 {
		window = 1
	}
	activation := decidedAt + uint64(window)
	if activation <= cur.Activation {
		activation = cur.Activation + 1
	}
	v := View{Epoch: cur.Epoch + 1, Activation: activation, Members: members}
	h.views = append(h.views, v)
	return v, true
}
