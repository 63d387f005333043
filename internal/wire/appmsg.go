package wire

import (
	"fmt"
	"slices"

	"modab/internal/types"
)

// AppMsg is an application message submitted through abcast. Both stacks
// carry AppMsgs in consensus proposals (the proposals have size ≈ M·l in
// the paper's analysis, where l is the application payload size).
type AppMsg struct {
	ID   types.MsgID
	Body []byte
}

// appMsgHeaderBytes is the wire overhead per AppMsg beyond its body:
// sender (4) + seq (8) + body length prefix (4).
const appMsgHeaderBytes = 16

// WireSize returns the encoded size of the message in bytes.
func (m AppMsg) WireSize() int { return appMsgHeaderBytes + len(m.Body) }

// Marshal appends the message to w.
func (m AppMsg) Marshal(w *Writer) {
	w.Int32(int32(m.ID.Sender))
	w.Uint64(m.ID.Seq)
	w.Bytes32(m.Body)
}

// unmarshalAppMsg reads one AppMsg whose body is a Reader.View32 aliasing
// r's buffer.
func unmarshalAppMsg(r *Reader) AppMsg {
	var m AppMsg
	m.ID.Sender = types.ProcessID(r.Int32())
	m.ID.Seq = r.Uint64()
	m.Body = r.View32()
	return m
}

// Batch is an ordered set of application messages proposed to (or decided
// by) one consensus instance.
type Batch []AppMsg

// WireSize returns the encoded size of the batch in bytes.
func (b Batch) WireSize() int {
	n := 4 // count prefix
	for _, m := range b {
		n += m.WireSize()
	}
	return n
}

// PayloadBytes returns the sum of application body lengths, the quantity
// the paper's §5.2.2 data-volume analysis is expressed in.
func (b Batch) PayloadBytes() int {
	n := 0
	for _, m := range b {
		n += len(m.Body)
	}
	return n
}

// Marshal appends the batch to w.
func (b Batch) Marshal(w *Writer) {
	w.Uint32(uint32(len(b)))
	for _, m := range b {
		m.Marshal(w)
	}
}

// UnmarshalBatch reads a batch from r whose bodies are copies, safe to
// keep: one copy of the encoded batch backs them all, so it allocates the
// slice and that one buffer, not a buffer per body.
func UnmarshalBatch(r *Reader) Batch { return unmarshalBatch(r, false, nil) }

// unmarshalBatch reads a batch into dst's storage; with view its bodies
// alias r's buffer.
func unmarshalBatch(r *Reader, view bool, dst Batch) Batch {
	n := r.Uint32()
	if r.Err() != nil {
		return nil
	}
	if n > MaxChunk/appMsgHeaderBytes {
		r.fail(fmt.Errorf("%w: batch of %d messages", ErrTooLarge, n))
		return nil
	}
	if int(n) > r.Len()/appMsgHeaderBytes {
		// Every message takes at least its header: a count the frame cannot
		// hold must not size the allocation below.
		r.fail(fmt.Errorf("%w: batch of %d messages in %d bytes", ErrShortBuffer, n, r.Len()))
		return nil
	}
	b, start := slices.Grow(dst[:0], int(n)), r.off
	for i := uint32(0); i < n; i++ {
		b = append(b, unmarshalAppMsg(r))
		if r.Err() != nil {
			return nil
		}
	}
	if !view {
		cp, off := append([]byte(nil), r.buf[start:r.off]...), 0
		for i := range b {
			off += appMsgHeaderBytes
			b[i].Body = cp[off : off+len(b[i].Body) : off+len(b[i].Body)]
			off += len(b[i].Body)
		}
	}
	return b
}

// MaxBatchBytes is the hard byte budget for one consensus proposal: a
// quarter of MaxChunk, leaving generous headroom for the frames that
// embed a proposal inside further envelopes (relay wrapping, estimate
// piggybacks) while guaranteeing no honestly-built proposal can ever
// encode past a receiver's MaxChunk guard. Without this, an unbounded
// pool — large payloads backing up behind a slow instance — would
// produce a proposal the wire layer itself refuses to decode.
const MaxBatchBytes = MaxChunk / 4

// CapBatchBytes truncates b in place to the MaxBatchBytes encoding
// budget, always keeping at least one message so a single oversized
// payload still makes progress (a payload near MaxChunk is rejected at
// submission, not here).
func CapBatchBytes(b Batch) Batch {
	size := 4
	for i, m := range b {
		size += m.WireSize()
		if size > MaxBatchBytes && i > 0 {
			return b[:i]
		}
	}
	return b
}

// SortDeterministic orders the batch by (sender, seq) — the deterministic
// adelivery order applied to a decided batch at every process (§3.3).
func (b Batch) SortDeterministic() {
	slices.SortFunc(b, func(x, y AppMsg) int { return x.ID.Compare(y.ID) })
}

// IDs returns the message identifiers of the batch, in batch order.
func (b Batch) IDs() []types.MsgID {
	ids := make([]types.MsgID, len(b))
	for i, m := range b {
		ids[i] = m.ID
	}
	return ids
}
