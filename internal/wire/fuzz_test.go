package wire

import (
	"bytes"
	"testing"
	"unsafe"

	"modab/internal/member"
	"modab/internal/types"
)

// FuzzUnmarshalFrame fuzzes the diffuse-frame decoder — the first parser
// every inbound abcast payload hits. It must never panic, and any frame
// it accepts must re-encode to an equivalent batch (decode/encode/decode
// fixpoint).
func FuzzUnmarshalFrame(f *testing.F) {
	// Seed corpus: one well-formed frame of each kind plus truncations and
	// a bad tag (testdata/fuzz adds crash-regression inputs on top).
	var w Writer
	AppendMsgFrame(&w, AppMsg{ID: types.MsgID{Sender: 1, Seq: 7}, Body: []byte("hello")})
	f.Add(append([]byte(nil), w.Bytes()...))
	var wb Writer
	AppendBatchFrame(&wb, Batch{
		{ID: types.MsgID{Sender: 0, Seq: 1}, Body: []byte("a")},
		{ID: types.MsgID{Sender: 2, Seq: 9}, Body: bytes.Repeat([]byte("x"), 300)},
	})
	f.Add(append([]byte(nil), wb.Bytes()...))
	f.Add(wb.Bytes()[:len(wb.Bytes())/2]) // torn batch
	f.Add([]byte{99, 0, 0})               // unknown kind
	f.Add([]byte{})
	// Relay-tagged frames: UnmarshalFrame must cleanly reject the ring
	// wrapper (kind 7) — engines peel it with UnmarshalRelayFrame first.
	var wr Writer
	AppendRelayFrame(&wr, RelayHeader{Origin: 1, Seq: 1<<48 + 3, Hops: 2}, w.Bytes())
	f.Add(append([]byte(nil), wr.Bytes()...))
	f.Add(wr.Bytes()[:relayHeaderBytes]) // relay header with torn-off inner
	// Digest-ordering frames (kinds 8-10): UnmarshalFrame must reject them
	// like any foreign kind — engines demultiplex them by FrameKind before
	// this decoder runs — and the decoder must survive their shapes.
	db := Batch{
		{ID: types.MsgID{Sender: 1, Seq: 5}, Body: []byte("p0")},
		{ID: types.MsgID{Sender: 1, Seq: 6}, Body: []byte("p1")},
	}
	dd, _ := DescriptorFor(db, 1<<48|9)
	var wa Writer
	AppendAnnounceFrame(&wa, dd, db)
	f.Add(append([]byte(nil), wa.Bytes()...))
	var wf Writer
	AppendPayloadFetchFrame(&wf, dd)
	f.Add(append([]byte(nil), wf.Bytes()...))
	var wp Writer
	AppendPayloadRespFrame(&wp, dd, db)
	f.Add(append([]byte(nil), wp.Bytes()...))
	f.Add(wa.Bytes()[:len(wa.Bytes())/2]) // torn announce
	// A batch frame carrying a descriptor pseudo-message (what consensus
	// actually orders in digest mode).
	var wdp Writer
	AppendBatchFrame(&wdp, Batch{dd.AppMsg()})
	f.Add(append([]byte(nil), wdp.Bytes()...))
	// Membership frames: config ops are magic-prefixed bodies riding
	// ordinary msg/batch frames — the decoder must survive their shapes
	// and torn variants (op decoding itself happens above the wire layer).
	addOp := member.EncodeOp(member.Op{Kind: member.OpAdd, Target: 3, BaseEpoch: 2, Addr: "10.0.0.4:7000"})
	var wm Writer
	AppendMsgFrame(&wm, AppMsg{ID: types.MsgID{Sender: 0, Seq: 12}, Body: addOp})
	f.Add(append([]byte(nil), wm.Bytes()...))
	rmOp := member.EncodeOp(member.Op{Kind: member.OpRemove, Target: 1, BaseEpoch: 7})
	var wmb Writer
	AppendBatchFrame(&wmb, Batch{
		{ID: types.MsgID{Sender: 2, Seq: 3}, Body: rmOp},
		{ID: types.MsgID{Sender: 2, Seq: 4}, Body: addOp[:len(addOp)-3]}, // torn op body
	})
	f.Add(append([]byte(nil), wmb.Bytes()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalFrame(data)
		if err != nil {
			return
		}
		// Accepted frames round-trip: re-encode as a batch frame and
		// decode to the same messages.
		var rw Writer
		AppendBatchFrame(&rw, b)
		rb, rerr := UnmarshalFrame(rw.Bytes())
		if rerr != nil {
			t.Fatalf("re-encoded frame rejected: %v", rerr)
		}
		if len(rb) != len(b) {
			t.Fatalf("round-trip changed batch size: %d != %d", len(rb), len(b))
		}
		for i := range b {
			if rb[i].ID != b[i].ID || !bytes.Equal(rb[i].Body, b[i].Body) {
				t.Fatalf("round-trip changed message %d: %+v != %+v", i, rb[i], b[i])
			}
		}
	})
}

// FuzzDigestFrames fuzzes the digest-ordering frame decoders: announce,
// payload-fetch and payload-resp. They must never panic, any accepted
// announce/resp must satisfy descriptor validation by construction, and
// accepted frames must round-trip.
func FuzzDigestFrames(f *testing.F) {
	db := Batch{
		{ID: types.MsgID{Sender: 2, Seq: 100}, Body: []byte("alpha")},
		{ID: types.MsgID{Sender: 2, Seq: 101}, Body: bytes.Repeat([]byte("b"), 64)},
		{ID: types.MsgID{Sender: 2, Seq: 102}, Body: nil},
	}
	dd, _ := DescriptorFor(db, 3<<48|7)
	var wa Writer
	AppendAnnounceFrame(&wa, dd, db)
	f.Add(append([]byte(nil), wa.Bytes()...))
	var wp Writer
	AppendPayloadRespFrame(&wp, dd, db)
	f.Add(append([]byte(nil), wp.Bytes()...))
	var wf Writer
	AppendPayloadFetchFrame(&wf, dd)
	f.Add(append([]byte(nil), wf.Bytes()...))
	// Corrupted digest: flip a payload byte after framing — the decoder
	// must reject the CRC mismatch.
	corrupt := append([]byte(nil), wa.Bytes()...)
	corrupt[len(corrupt)-10] ^= 0xff
	f.Add(corrupt)
	f.Add(wa.Bytes()[:24]) // torn descriptor
	f.Add([]byte{FrameAnnounce})
	f.Add([]byte{FramePayloadFetch, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if d, b, err := UnmarshalAnnounceFrame(data); err == nil {
			if verr := d.Validate(b); verr != nil {
				t.Fatalf("accepted announce fails validation: %v", verr)
			}
			checkViews(t, data, b)
			var w Writer
			AppendAnnounceFrame(&w, d, b)
			rd, rb, rerr := UnmarshalAnnounceFrame(w.Bytes())
			if rerr != nil {
				t.Fatalf("re-encoded announce rejected: %v", rerr)
			}
			if rd != d || len(rb) != len(b) {
				t.Fatalf("announce round-trip changed: %+v != %+v", rd, d)
			}
		}
		if d, b, err := UnmarshalPayloadRespFrame(data); err == nil {
			checkViews(t, data, b)
			var w Writer
			AppendPayloadRespFrame(&w, d, b)
			if _, _, rerr := UnmarshalPayloadRespFrame(w.Bytes()); rerr != nil {
				t.Fatalf("re-encoded payload-resp rejected: %v", rerr)
			}
		}
		if d, err := UnmarshalPayloadFetch(data); err == nil {
			var w Writer
			AppendPayloadFetchFrame(&w, d)
			rd, rerr := UnmarshalPayloadFetch(w.Bytes())
			if rerr != nil {
				t.Fatalf("re-encoded payload-fetch rejected: %v", rerr)
			}
			if rd != d {
				t.Fatalf("payload-fetch round-trip changed: %+v != %+v", rd, d)
			}
		}
	})
}

// FuzzRecoverFrames fuzzes the state-transfer frame decoders the
// crash-recovery protocol exposes to the network.
func FuzzRecoverFrames(f *testing.F) {
	var wq Writer
	AppendRecoverReqFrame(&wq, RecoverReq{From: 42})
	f.Add(append([]byte(nil), wq.Bytes()...))
	var wr Writer
	AppendRecoverRespFrame(&wr, RecoverResp{UpTo: 7, Decisions: []DecidedInstance{
		{K: 6, Batch: Batch{{ID: types.MsgID{Sender: 1, Seq: 3}, Body: []byte("d")}}},
	}})
	f.Add(append([]byte(nil), wr.Bytes()...))
	f.Add([]byte{byte(FrameRecoverReq)})
	f.Add([]byte{byte(FrameRecoverResp), 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := UnmarshalRecoverReq(data); err == nil {
			var w Writer
			AppendRecoverReqFrame(&w, req)
			if _, err := UnmarshalRecoverReq(w.Bytes()); err != nil {
				t.Fatalf("re-encoded recover-req rejected: %v", err)
			}
		}
		if resp, err := UnmarshalRecoverResp(data); err == nil {
			var w Writer
			AppendRecoverRespFrame(&w, resp)
			if _, err := UnmarshalRecoverResp(w.Bytes()); err != nil {
				t.Fatalf("re-encoded recover-resp rejected: %v", err)
			}
		}
	})
}

// checkViews asserts that every body of a batch decoded from data is a
// view into data whose capacity ends with its bytes, so an append to one
// body can never reach the frame bytes after it.
func checkViews(t *testing.T, data []byte, b Batch) {
	t.Helper()
	for i, m := range b {
		if cap(m.Body) != len(m.Body) {
			t.Fatalf("body %d: len %d, cap %d", i, len(m.Body), cap(m.Body))
		}
		if len(m.Body) == 0 {
			continue
		}
		start := int(uintptr(unsafe.Pointer(unsafe.SliceData(m.Body))) - uintptr(unsafe.Pointer(unsafe.SliceData(data))))
		if start < 0 || start+len(m.Body) > len(data) || !bytes.Equal(data[start:start+len(m.Body)], m.Body) {
			t.Fatalf("body %d does not lie inside the frame", i)
		}
	}
}
