package monolithic

import (
	"fmt"

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
	// mFrame carries one tail or head frame (internal/wire: state transfer,
	// payload repair, announce, ring relay) raw after the type byte, with no
	// instance/round header: the same bytes the modular stack sends under
	// its stack tag. HandleMessage hands it to the shared router
	// (head.Receive).
	mFrame
)

var mtypeNames = [...]string{
	mPropDec: "proposal+decision", mAckDiff: "ack+diffusion", mEstimate: "estimate",
	mNack: "nack", mForward: "forward", mDecisionOnly: "decision",
	mDecisionReq: "decision-req", mDecisionFull: "decision-full", mFrame: "frame",
}

// String implements fmt.Stringer.
func (t mtype) String() string {
	if int(t) < len(mtypeNames) && mtypeNames[t] != "" {
		return mtypeNames[t]
	}
	return fmt.Sprintf("mtype(%d)", uint8(t))
}

// message is the uniform monolithic wire unit of the §4 protocol; variant
// fields are used according to Type. An mFrame is no message: its frame
// bypasses this codec.
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
}

// marshal encodes m into a buffer of its own, for a consumer that keeps it.
func (m message) marshal() []byte {
	w := m.encode()
	defer wire.PutWriter(w)
	return append([]byte(nil), w.Bytes()...)
}

// encode encodes m into a pooled writer; the caller returns it with
// wire.PutWriter once the bytes are consumed.
func (m message) encode() *wire.Writer {
	w := wire.GetWriter(1 + 8 + 4 + m.Batch.WireSize() + m.Piggyback.WireSize() + 48)
	m.marshalTo(w)
	return w
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
	case mNack, mDecisionOnly, mDecisionReq:
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
	case mNack, mDecisionOnly, mDecisionReq:
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
