package wire

import (
	"errors"
	"fmt"

	"modab/internal/member"
	"modab/internal/types"
)

// Snapshot state-transfer frame kinds. They extend the recover-frame
// namespace: a rebooting node that is too far behind to be served
// instance-by-instance (its peers truncated their logs below the
// snapshot horizon) fetches the newest snapshot in chunks, installs it,
// and only then resumes the per-instance catch-up of FrameRecoverReq.
const (
	// FrameSnapReq asks a peer for one chunk of its snapshot at a given
	// index, starting at a byte offset.
	FrameSnapReq uint8 = 5
	// FrameSnapResp answers with the chunk plus enough metadata for the
	// requester to detect completion and index changes mid-transfer.
	FrameSnapResp uint8 = 6
)

// SnapChunk is the chunk size of snapshot state transfer (256 KiB): small
// enough to interleave with protocol traffic, large enough that a
// realistic state machine ships in a handful of round trips.
const SnapChunk = 256 << 10

// SnapReq is the decoded form of a FrameSnapReq.
type SnapReq struct {
	// Index is the snapshot the requester is fetching (learned from
	// RecoverResp.SnapIndex).
	Index uint64
	// Offset is the byte offset of the requested chunk.
	Offset uint64
}

// SnapResp is the decoded form of a FrameSnapResp.
type SnapResp struct {
	// Index is the snapshot actually served. When the responder has moved
	// to a newer snapshot mid-transfer it serves that one instead and the
	// requester restarts from offset 0.
	Index uint64
	// Total is the full encoded envelope size in bytes (0 when the
	// responder no longer has a snapshot to serve).
	Total uint64
	// Offset echoes the chunk's byte offset.
	Offset uint64
	// UpTo is the responder's highest contiguously decided instance, so
	// the requester can keep its catch-up target fresh.
	UpTo uint64
	// Data is the chunk (empty when the responder cannot serve).
	Data []byte
}

// AppendSnapReqFrame appends a snapshot-chunk request frame to w.
func AppendSnapReqFrame(w *Writer, req SnapReq) {
	w.Uint8(FrameSnapReq)
	w.Uint64(req.Index)
	w.Uint64(req.Offset)
}

// AppendSnapRespFrame appends a snapshot-chunk response frame to w.
func AppendSnapRespFrame(w *Writer, resp SnapResp) {
	w.Uint8(FrameSnapResp)
	w.Uint64(resp.Index)
	w.Uint64(resp.Total)
	w.Uint64(resp.Offset)
	w.Uint64(resp.UpTo)
	w.Bytes32(resp.Data)
}

// UnmarshalSnapReq decodes a FrameSnapReq payload (kind byte included).
func UnmarshalSnapReq(data []byte) (SnapReq, error) {
	r := NewReader(data)
	if kind := r.Uint8(); r.Err() == nil && kind != FrameSnapReq {
		return SnapReq{}, fmt.Errorf("%w: %d", ErrBadFrame, kind)
	}
	req := SnapReq{Index: r.Uint64(), Offset: r.Uint64()}
	r.ExpectEOF()
	return req, r.Err()
}

// UnmarshalSnapResp decodes a FrameSnapResp payload (kind byte included).
func UnmarshalSnapResp(data []byte) (SnapResp, error) {
	r := NewReader(data)
	if kind := r.Uint8(); r.Err() == nil && kind != FrameSnapResp {
		return SnapResp{}, fmt.Errorf("%w: %d", ErrBadFrame, kind)
	}
	resp := SnapResp{Index: r.Uint64(), Total: r.Uint64(), Offset: r.Uint64(), UpTo: r.Uint64()}
	resp.Data = r.Bytes32()
	r.ExpectEOF()
	return resp, r.Err()
}

// SnapshotEnvelope is the logical content of one snapshot: the state
// machine's bytes at an instance boundary plus the delivered-dedup state
// and the membership history at that same boundary. Shipping the dedup
// state matters: without it, a node whose own message was ordered at or
// below Index but who crashed before persisting that decision would
// re-propose it after install and apply it twice. The views matter
// because the config ops the snapshot covers leave the log with the rest.
// The envelope is what the snapshot store persists and what state
// transfer ships; the codec lives here (not in the recovery package) so
// the engines can decode it without an import cycle.
type SnapshotEnvelope struct {
	// Index is the highest instance whose deliveries are folded into
	// State: the snapshot covers exactly instances [1, Index].
	Index uint64
	// Dedup is the marshaled delivered-map (internal/dedup) at Index,
	// opaque at this layer.
	Dedup []byte
	// State is the state machine's own serialization.
	State []byte
	// Views is the membership history decided at or below Index, oldest
	// first (epochs strictly increasing, members sorted).
	Views []member.View
}

// ErrBadViews reports a malformed view history in a snapshot envelope.
var ErrBadViews = errors.New("wire: malformed view history")

// Marshal appends the envelope to w.
func (e SnapshotEnvelope) Marshal(w *Writer) {
	w.Uint64(e.Index)
	w.Bytes32(e.Dedup)
	w.Bytes32(e.State)
	w.Uint32(uint32(len(e.Views)))
	for _, v := range e.Views {
		w.Uint64(v.Epoch)
		w.Uint64(v.Activation)
		w.Uint32(uint32(len(v.Members)))
		for _, m := range v.Members {
			w.Uint32(uint32(m))
		}
	}
}

// WireSize returns the encoded size of the envelope in bytes.
func (e SnapshotEnvelope) WireSize() int {
	n := 8 + 4 + len(e.Dedup) + 4 + len(e.State) + 4
	for _, v := range e.Views {
		n += 8 + 8 + 4 + 4*len(v.Members)
	}
	return n
}

// UnmarshalSnapshotEnvelope decodes a snapshot envelope.
func UnmarshalSnapshotEnvelope(data []byte) (SnapshotEnvelope, error) {
	r := NewReader(data)
	e := SnapshotEnvelope{Index: r.Uint64()}
	e.Dedup = r.Bytes32()
	e.State = r.Bytes32()
	e.Views = readViews(r)
	r.ExpectEOF()
	return e, r.Err()
}

// readViews decodes a view history. Counts are bounded by the bytes left
// before anything is allocated; empty or unsorted members and epochs that
// do not increase are ErrBadViews.
func readViews(r *Reader) []member.View {
	n := r.Uint32()
	if uint64(n) > uint64(r.Len()/20) { // a view takes at least 20 bytes
		r.fail(fmt.Errorf("%w: %d views in %d bytes", ErrBadViews, n, r.Len()))
	}
	var views []member.View
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		v := member.View{Epoch: r.Uint64(), Activation: r.Uint64()}
		m := r.Uint32()
		ok := m > 0 && uint64(m) <= uint64(r.Len()/4) && (i == 0 || v.Epoch > views[i-1].Epoch)
		for j := uint32(0); ok && j < m; j++ {
			p := types.ProcessID(r.Int32())
			ok = p >= 0 && (j == 0 || p > v.Members[j-1])
			v.Members = append(v.Members, p)
		}
		if !ok && r.Err() == nil {
			r.fail(fmt.Errorf("%w: view %d", ErrBadViews, i))
		}
		views = append(views, v)
	}
	return views
}
