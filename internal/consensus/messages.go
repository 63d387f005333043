package consensus

import (
	"fmt"

	"modab/internal/wire"
)

// msgType enumerates the consensus wire messages.
type msgType uint8

const (
	// mtEstimate carries a process's current estimate to the coordinator
	// of a round >= 2 (the round-1 estimate phase is suppressed, §3.2).
	mtEstimate msgType = iota + 1
	// mtProposal carries the coordinator's proposal for a round.
	mtProposal
	// mtAck acknowledges a proposal to its coordinator.
	mtAck
	// mtNack rejects a round after suspecting its coordinator.
	mtNack
	// mtDecisionTag is the small DECISION tag reliably broadcast instead
	// of the full decision (§3.2 optimization).
	mtDecisionTag
	// mtDecisionReq asks a peer for the full decision of an instance
	// (recovery when the tag arrives without the matching proposal).
	mtDecisionReq
	// mtDecisionFull carries a full decision in reply to mtDecisionReq.
	mtDecisionFull
)

// String implements fmt.Stringer.
func (t msgType) String() string {
	switch t {
	case mtEstimate:
		return "estimate"
	case mtProposal:
		return "proposal"
	case mtAck:
		return "ack"
	case mtNack:
		return "nack"
	case mtDecisionTag:
		return "decision-tag"
	case mtDecisionReq:
		return "decision-req"
	case mtDecisionFull:
		return "decision-full"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// message is the uniform consensus wire unit; variant fields are used
// according to Type.
type message struct {
	Type     msgType
	Instance uint64
	Round    uint32
	// TS is the round in which the estimate was last adopted (mtEstimate).
	TS uint32
	// HasValue reports whether the estimate carries a value (mtEstimate).
	HasValue bool
	// Batch carries the value (mtEstimate, mtProposal, mtDecisionFull).
	Batch wire.Batch
}

// headerBytes is the fixed encoded size of the common message header.
const headerBytes = 1 + 8 + 4

// marshal encodes m into a buffer of its own, for a consumer that keeps it.
func (m message) marshal() []byte {
	w := m.encode()
	defer wire.PutWriter(w)
	return append([]byte(nil), w.Bytes()...)
}

// encode encodes m into a pooled writer; the caller returns it with
// wire.PutWriter once the bytes are consumed.
func (m message) encode() *wire.Writer {
	w := wire.GetWriter(headerBytes + 5 + m.Batch.WireSize())
	w.Uint8(uint8(m.Type))
	w.Uint64(m.Instance)
	w.Uint32(m.Round)
	switch m.Type {
	case mtEstimate:
		w.Uint32(m.TS)
		w.Bool(m.HasValue)
		m.Batch.Marshal(w)
	case mtProposal, mtDecisionFull:
		m.Batch.Marshal(w)
	}
	return w
}

func unmarshalMessage(data []byte) (message, error) {
	r := wire.NewReader(data)
	var m message
	m.Type = msgType(r.Uint8())
	m.Instance = r.Uint64()
	m.Round = r.Uint32()
	switch m.Type {
	case mtEstimate:
		m.TS = r.Uint32()
		m.HasValue = r.Bool()
		m.Batch = wire.UnmarshalBatch(r)
	case mtProposal, mtDecisionFull:
		m.Batch = wire.UnmarshalBatch(r)
	case mtAck, mtNack, mtDecisionTag, mtDecisionReq:
		// Header only.
	default:
		return message{}, fmt.Errorf("consensus: unknown message type %d", uint8(m.Type))
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return message{}, fmt.Errorf("consensus: decode %s: %w", m.Type, err)
	}
	return m, nil
}
