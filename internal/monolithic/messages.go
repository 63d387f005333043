package monolithic

import (
	"fmt"

	"modab/internal/types"
	"modab/internal/wire"
)

// mtype enumerates the monolithic wire messages. The vocabulary shows the
// merge: consensus phases, abcast diffusion and decision dissemination are
// combined into single message types (paper §4, Fig. 6).
type mtype uint8

const (
	// mPropDec is the coordinator's combined "proposal k + decision k-1"
	// (§4.1). In good runs it is the only coordinator→others message.
	mPropDec mtype = iota + 1
	// mAckDiff is the combined "ack + diffusion" (§4.2): the consensus ack
	// carrying the sender's fresh abcast messages to the coordinator only.
	mAckDiff
	// mEstimate is the round-change estimate, again carrying the sender's
	// unordered messages to the new coordinator (§4.2).
	mEstimate
	// mNack rejects a round after suspecting its coordinator.
	mNack
	// mForward carries abcast messages to the coordinator when no
	// consensus is in flight to piggyback on (bootstrap/idle path).
	mForward
	// mDecisionOnly disseminates a decision when there is no next proposal
	// to piggyback it on (idle tail; never sent in the saturated good runs
	// the analysis of §5.2 considers).
	mDecisionOnly
	// mDecisionReq asks a peer for a missed decision (crash recovery).
	mDecisionReq
	// mDecisionFull answers mDecisionReq.
	mDecisionFull
	// mRecoverReq announces a restarted process and asks for the decided
	// instances it missed, starting at Instance (its decided watermark + 1).
	mRecoverReq
	// mRecoverResp answers mRecoverReq with the responder's decided horizon
	// (UpTo) and a contiguous chunk of decided instances.
	mRecoverResp
	// mSnapReq asks a peer for a chunk of its snapshot at Instance
	// (= snapshot index), starting at byte Offset — the far-behind branch of
	// crash recovery, taken when the responder truncated its log below its
	// snapshot horizon and cannot serve the instances themselves.
	mSnapReq
	// mSnapResp answers mSnapReq with one chunk of the serialized snapshot
	// envelope (Instance = snapshot index, Total = envelope size, Offset =
	// chunk position, UpTo = responder's decided horizon).
	mSnapResp
	// mRelay wraps an mPropDec traveling along the ring dissemination
	// topology (engine.Config.Dissemination = Ring): Instance carries the
	// origin-assigned relay sequence number, RelayOrigin/RelayHops the
	// rest of the relay header, and Data the marshaled inner proposal.
	// Every other message type stays on its original point-to-point or
	// all-to-all path — relaying only the bulky proposal is exactly the
	// coordinator-NIC fix. Under digest ordering the proposal is pure
	// control (it carries descriptors, not payloads), so mRelay instead
	// wraps the payload announce: Data holds a raw wire.FrameAnnounce
	// frame rather than a marshaled inner message.
	mRelay
	// mAnnounce carries one payload batch with its descriptor (digest
	// ordering): the one-time payload dissemination, after which every
	// ordering message — proposal, ack, estimate, decision — carries only
	// the ~32-byte descriptor pseudo-message. Data holds a raw
	// wire.FrameAnnounce frame, validated (count, ID range, CRC digest)
	// at the wire layer before the engine sees it.
	mAnnounce
	// mPayloadFetch asks one peer for the payload batch of a decided
	// descriptor that never became resident here (lost announce, restart).
	// Data holds a raw wire.FramePayloadFetch frame.
	mPayloadFetch
	// mPayloadResp answers mPayloadFetch; Data holds a raw
	// wire.FramePayloadResp frame, validated exactly like an announce.
	mPayloadResp
)

var mtypeNames = [...]string{
	mPropDec: "proposal+decision", mAckDiff: "ack+diffusion", mEstimate: "estimate",
	mNack: "nack", mForward: "forward", mDecisionOnly: "decision",
	mDecisionReq: "decision-req", mDecisionFull: "decision-full",
	mRecoverReq: "recover-req", mRecoverResp: "recover-resp",
	mSnapReq: "snap-req", mSnapResp: "snap-resp", mRelay: "relay",
	mAnnounce: "announce", mPayloadFetch: "payload-fetch", mPayloadResp: "payload-resp",
}

// String implements fmt.Stringer.
func (t mtype) String() string {
	if int(t) < len(mtypeNames) && mtypeNames[t] != "" {
		return mtypeNames[t]
	}
	return fmt.Sprintf("mtype(%d)", uint8(t))
}

// message is the uniform monolithic wire unit; variant fields are used
// according to Type.
type message struct {
	Type     mtype
	Instance uint64
	Round    uint32
	// Batch is the proposal (mPropDec), the piggybacked diffusion
	// (mAckDiff, mForward), the estimate value (mEstimate) or the decided
	// batch (mDecisionFull).
	Batch wire.Batch
	// PrevDecided marks that PrevK/PrevRound identify the previous
	// instance's decision piggybacked on this proposal (mPropDec).
	PrevDecided bool
	PrevK       uint64
	PrevRound   uint32
	// TS and HasValue qualify the estimate (mEstimate).
	TS       uint32
	HasValue bool
	// Piggyback carries the sender's unordered messages on an estimate
	// (mEstimate); mAckDiff uses Batch for the same purpose.
	Piggyback wire.Batch
	// UpTo is the responder's highest contiguously decided instance and
	// Decisions the served chunk (mRecoverResp; Instance echoes the
	// requested starting instance). SnapIndex is the responder's newest
	// snapshot index (0 = none): a requester whose catch-up cannot advance
	// past a truncated log switches to snapshot transfer when SnapIndex
	// covers its missing instance.
	UpTo      uint64
	SnapIndex uint64
	Decisions []wire.DecidedInstance
	// Offset, Total and Data carry snapshot transfer chunks (mSnapReq uses
	// Offset; mSnapResp uses all three, with Instance as the snapshot
	// index and UpTo as the responder's decided horizon). mRelay reuses
	// Data for the marshaled inner proposal. Except in mSnapResp, Data is
	// a view into the received frame, not a copy: an announce's bodies
	// stay resident in the payload store as views into it.
	Offset uint64
	Total  uint64
	Data   []byte
	// RelayOrigin and RelayHops complete the relay header of an mRelay
	// (Instance carries the relay sequence number).
	RelayOrigin types.ProcessID
	RelayHops   uint8
}

// marshal encodes the message through a pooled writer scratch buffer and
// returns an exact-size copy. The copy is required because env.Send may
// retain the slice (the simulator queues it for later dispatch); the
// pooling still removes the marshal buffer's grow-and-discard churn from
// the hot path.
func (m message) marshal() []byte {
	size := 1 + 8 + 4 + m.Batch.WireSize() + m.Piggyback.WireSize() + len(m.Data) + 48
	for _, d := range m.Decisions {
		size += d.WireSize()
	}
	w := wire.GetWriter(size)
	defer wire.PutWriter(w)
	m.marshalTo(w)
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	return out
}

func (m message) marshalTo(w *wire.Writer) {
	w.Uint8(uint8(m.Type))
	w.Uint64(m.Instance)
	w.Uint32(m.Round)
	switch m.Type {
	case mPropDec:
		w.Bool(m.PrevDecided)
		w.Uint64(m.PrevK)
		w.Uint32(m.PrevRound)
		m.Batch.Marshal(w)
	case mAckDiff, mForward, mDecisionFull:
		m.Batch.Marshal(w)
	case mEstimate:
		w.Uint32(m.TS)
		w.Bool(m.HasValue)
		m.Batch.Marshal(w)
		m.Piggyback.Marshal(w)
	case mRecoverResp:
		w.Uint64(m.UpTo)
		w.Uint64(m.SnapIndex)
		w.Uint32(uint32(len(m.Decisions)))
		for _, d := range m.Decisions {
			d.Marshal(w)
		}
	case mSnapReq:
		w.Uint64(m.Offset)
	case mSnapResp:
		w.Uint64(m.Total)
		w.Uint64(m.Offset)
		w.Uint64(m.UpTo)
		w.Bytes32(m.Data)
	case mRelay:
		w.Int32(int32(m.RelayOrigin))
		w.Uint8(m.RelayHops)
		w.Bytes32(m.Data)
	case mAnnounce, mPayloadFetch, mPayloadResp:
		w.Bytes32(m.Data)
	case mNack, mDecisionOnly, mDecisionReq, mRecoverReq:
		// Header only.
	}
}

func unmarshalMessage(data []byte) (message, error) {
	r := wire.NewReader(data)
	var m message
	m.Type = mtype(r.Uint8())
	m.Instance = r.Uint64()
	m.Round = r.Uint32()
	switch m.Type {
	case mPropDec:
		m.PrevDecided = r.Bool()
		m.PrevK = r.Uint64()
		m.PrevRound = r.Uint32()
		m.Batch = wire.UnmarshalBatch(r)
	case mAckDiff, mForward, mDecisionFull:
		m.Batch = wire.UnmarshalBatch(r)
	case mEstimate:
		m.TS = r.Uint32()
		m.HasValue = r.Bool()
		m.Batch = wire.UnmarshalBatch(r)
		m.Piggyback = wire.UnmarshalBatch(r)
	case mRecoverResp:
		m.UpTo = r.Uint64()
		m.SnapIndex = r.Uint64()
		n := r.Uint32()
		if r.Err() == nil && n > wire.MaxChunk/16 {
			return message{}, fmt.Errorf("monolithic: recover-resp of %d decisions", n)
		}
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			m.Decisions = append(m.Decisions, wire.UnmarshalDecidedInstance(r))
		}
	case mSnapReq:
		m.Offset = r.Uint64()
	case mSnapResp:
		m.Total = r.Uint64()
		m.Offset = r.Uint64()
		m.UpTo = r.Uint64()
		m.Data = r.Bytes32()
	case mRelay:
		m.RelayOrigin = types.ProcessID(r.Int32())
		m.RelayHops = r.Uint8()
		m.Data = r.View32()
	case mAnnounce, mPayloadFetch, mPayloadResp:
		m.Data = r.View32()
	case mNack, mDecisionOnly, mDecisionReq, mRecoverReq:
		// Header only.
	default:
		return message{}, fmt.Errorf("monolithic: unknown message type %d", uint8(m.Type))
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return message{}, fmt.Errorf("monolithic: decode %s: %w", m.Type, err)
	}
	return m, nil
}

// ownMsg tracks the lifecycle of a locally abcast message until delivery.
type ownMsg struct {
	msg wire.AppMsg
	// attached is the instance whose ack/estimate last carried this
	// message to a coordinator; 0 means never sent.
	attached uint64
}
