package wire

import "fmt"

// State-transfer frame kinds (crash-recovery subsystem). They share the
// diffuse-frame kind-byte namespace (FrameAppMsg, FrameBatch) so the
// abcast layer demultiplexes all of its traffic through one leading byte;
// the monolithic stack carries the same frames after its one mFrame type
// byte. Both hand them to one router, internal/head's Receive.
const (
	// FrameRecoverReq asks a peer for decided instances starting at a
	// given instance number: a restarting node announcing itself.
	FrameRecoverReq uint8 = 3
	// FrameRecoverResp answers with the responder's decided horizon and a
	// chunk of contiguous decided instances.
	FrameRecoverResp uint8 = 4
)

// DecidedInstance is one decided consensus instance as persisted in the
// write-ahead log and shipped during state transfer.
type DecidedInstance struct {
	K     uint64
	Batch Batch
}

// RecoverReq is the decoded form of a FrameRecoverReq.
type RecoverReq struct {
	// From is the lowest instance the requester is missing
	// (its decided watermark + 1).
	From uint64
}

// RecoverResp is the decoded form of a FrameRecoverResp.
type RecoverResp struct {
	// UpTo is the responder's highest contiguously decided instance.
	UpTo uint64
	// SnapIndex is the index of the responder's latest durable snapshot
	// (0 = none). A requester that gets no decisions but a SnapIndex at or
	// above its missing instance switches to snapshot state transfer
	// (FrameSnapReq) — the responder truncated its log below the horizon.
	SnapIndex uint64
	// Decisions is a contiguous run of decided instances starting at the
	// requested From (possibly empty when the responder cannot serve it).
	Decisions []DecidedInstance
}

// AppendRecoverReqFrame appends a state-transfer request frame to w.
func AppendRecoverReqFrame(w *Writer, req RecoverReq) {
	w.Uint8(FrameRecoverReq)
	w.Uint64(req.From)
}

// AppendRecoverRespFrame appends a state-transfer response frame to w.
func AppendRecoverRespFrame(w *Writer, resp RecoverResp) {
	w.Uint8(FrameRecoverResp)
	w.Uint64(resp.UpTo)
	w.Uint64(resp.SnapIndex)
	w.Uint32(uint32(len(resp.Decisions)))
	for _, d := range resp.Decisions {
		d.Marshal(w)
	}
}

// Marshal appends one decided instance to w.
func (d DecidedInstance) Marshal(w *Writer) {
	w.Uint64(d.K)
	d.Batch.Marshal(w)
}

// WireSize returns the encoded size of the decided instance in bytes.
func (d DecidedInstance) WireSize() int { return 8 + d.Batch.WireSize() }

// UnmarshalDecidedInstance reads one decided instance from r.
func UnmarshalDecidedInstance(r *Reader) DecidedInstance {
	var d DecidedInstance
	d.K = r.Uint64()
	d.Batch = UnmarshalBatch(r)
	return d
}

// UnmarshalRecoverReq decodes a FrameRecoverReq payload (kind byte
// included).
func UnmarshalRecoverReq(data []byte) (RecoverReq, error) {
	r := NewReader(data)
	if kind := r.Uint8(); r.Err() == nil && kind != FrameRecoverReq {
		return RecoverReq{}, fmt.Errorf("%w: %d", ErrBadFrame, kind)
	}
	req := RecoverReq{From: r.Uint64()}
	r.ExpectEOF()
	return req, r.Err()
}

// UnmarshalRecoverResp decodes a FrameRecoverResp payload (kind byte
// included).
func UnmarshalRecoverResp(data []byte) (RecoverResp, error) {
	r := NewReader(data)
	if kind := r.Uint8(); r.Err() == nil && kind != FrameRecoverResp {
		return RecoverResp{}, fmt.Errorf("%w: %d", ErrBadFrame, kind)
	}
	resp := RecoverResp{UpTo: r.Uint64(), SnapIndex: r.Uint64()}
	n := r.Uint32()
	if r.Err() != nil {
		return RecoverResp{}, r.Err()
	}
	if n > MaxChunk/appMsgHeaderBytes {
		return RecoverResp{}, fmt.Errorf("%w: %d decisions", ErrTooLarge, n)
	}
	if int(n) > r.Len()/(8+4) { // each decision takes at least K and a batch count
		return RecoverResp{}, fmt.Errorf("%w: %d decisions in %d bytes", ErrShortBuffer, n, r.Len())
	}
	resp.Decisions = make([]DecidedInstance, 0, n)
	for i := uint32(0); i < n; i++ {
		resp.Decisions = append(resp.Decisions, UnmarshalDecidedInstance(r))
		if r.Err() != nil {
			return RecoverResp{}, r.Err()
		}
	}
	r.ExpectEOF()
	return resp, r.Err()
}

// FrameKind returns the leading kind byte of a diffuse/state-transfer
// frame (0 for an empty frame).
func FrameKind(data []byte) uint8 {
	if len(data) == 0 {
		return 0
	}
	return data[0]
}
