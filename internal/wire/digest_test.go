package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"modab/internal/types"
)

func digestBatch(origin types.ProcessID, first uint64, bodies ...string) Batch {
	b := make(Batch, 0, len(bodies))
	for i, body := range bodies {
		b = append(b, AppMsg{
			ID:   types.MsgID{Sender: origin, Seq: first + uint64(i)},
			Body: []byte(body),
		})
	}
	return b
}

func TestDescriptorPseudoMsgRoundTrip(t *testing.T) {
	b := digestBatch(3, 42, "a", "bb", "ccc")
	d, err := DescriptorFor(b, 5<<48|17)
	if err != nil {
		t.Fatalf("DescriptorFor: %v", err)
	}
	m := d.AppMsg()
	if m.ID.Sender != 3 || m.ID.Seq != 5<<48|17 {
		t.Fatalf("pseudo-message ID %v", m.ID)
	}
	got, err := ParseDescriptor(m)
	if err != nil {
		t.Fatalf("ParseDescriptor: %v", err)
	}
	if got != d {
		t.Fatalf("round-trip changed descriptor: %+v != %+v", got, d)
	}
}

func TestParseDescriptorRejectsBadBody(t *testing.T) {
	m := AppMsg{ID: types.MsgID{Sender: 1, Seq: 1}, Body: []byte("short")}
	if _, err := ParseDescriptor(m); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("want ErrDigestMismatch, got %v", err)
	}
}

func TestDescriptorForRejectsBadShapes(t *testing.T) {
	cases := map[string]Batch{
		"empty": nil,
		"gap": {
			{ID: types.MsgID{Sender: 1, Seq: 1}},
			{ID: types.MsgID{Sender: 1, Seq: 3}},
		},
		"mixed-origin": {
			{ID: types.MsgID{Sender: 1, Seq: 1}},
			{ID: types.MsgID{Sender: 2, Seq: 2}},
		},
	}
	for name, b := range cases {
		if _, err := DescriptorFor(b, 1); !errors.Is(err, ErrDigestMismatch) {
			t.Errorf("%s: want ErrDigestMismatch, got %v", name, err)
		}
	}
}

func TestAnnounceFrameRejectsMismatches(t *testing.T) {
	b := digestBatch(2, 10, "x", "y")
	d, _ := DescriptorFor(b, 9)

	// Count mismatch: descriptor claims more messages than the frame holds.
	bad := d
	bad.Count = 3
	var w1 Writer
	AppendAnnounceFrame(&w1, bad, b)
	if _, _, err := UnmarshalAnnounceFrame(w1.Bytes()); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("count mismatch: want ErrDigestMismatch, got %v", err)
	}

	// Digest mismatch: payload byte corrupted after sealing.
	corrupted := digestBatch(2, 10, "x", "z")
	var w2 Writer
	AppendAnnounceFrame(&w2, d, corrupted)
	if _, _, err := UnmarshalAnnounceFrame(w2.Bytes()); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("digest mismatch: want ErrDigestMismatch, got %v", err)
	}

	// Range mismatch: batch starts at the wrong seq.
	shifted := digestBatch(2, 11, "x", "y")
	var w3 Writer
	AppendAnnounceFrame(&w3, d, shifted)
	if _, _, err := UnmarshalAnnounceFrame(w3.Bytes()); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("range mismatch: want ErrDigestMismatch, got %v", err)
	}

	// Wrong kind byte for the decoder.
	var w4 Writer
	AppendPayloadRespFrame(&w4, d, b)
	if _, _, err := UnmarshalAnnounceFrame(w4.Bytes()); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("kind mismatch: want ErrBadFrame, got %v", err)
	}
}

func TestPayloadFetchRoundTrip(t *testing.T) {
	d := Descriptor{Origin: 4, DSeq: 2<<48 | 5, FirstSeq: 1000, Count: 64, Digest: 0xdeadbeef}
	var w Writer
	AppendPayloadFetchFrame(&w, d)
	got, err := UnmarshalPayloadFetch(w.Bytes())
	if err != nil {
		t.Fatalf("UnmarshalPayloadFetch: %v", err)
	}
	if got != d {
		t.Fatalf("round-trip changed descriptor: %+v != %+v", got, d)
	}
}

// TestDigestFrameRoundTripProperty is the digest round-trip property
// test: for randomly generated (seeded) contiguous batches, the
// descriptor+announce encode/decode cycle is the identity, and any
// single-byte corruption of the payload region is rejected.
func TestDigestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		origin := types.ProcessID(rng.Intn(7))
		first := rng.Uint64() % (1 << 40)
		n := 1 + rng.Intn(32)
		b := make(Batch, 0, n)
		for i := 0; i < n; i++ {
			body := make([]byte, rng.Intn(128))
			rng.Read(body)
			b = append(b, AppMsg{ID: types.MsgID{Sender: origin, Seq: first + uint64(i)}, Body: body})
		}
		dseq := rng.Uint64()
		d, err := DescriptorFor(b, dseq)
		if err != nil {
			t.Fatalf("trial %d: DescriptorFor: %v", trial, err)
		}
		if d.Validate(b) != nil {
			t.Fatalf("trial %d: fresh descriptor does not validate its batch", trial)
		}
		var w Writer
		AppendAnnounceFrame(&w, d, b)
		rd, rb, err := UnmarshalAnnounceFrame(w.Bytes())
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if rd != d || len(rb) != len(b) {
			t.Fatalf("trial %d: round-trip changed frame", trial)
		}
		for i := range b {
			if rb[i].ID != b[i].ID || !bytes.Equal(rb[i].Body, b[i].Body) {
				t.Fatalf("trial %d: message %d changed", trial, i)
			}
		}
		// Corrupt one payload byte (when there is one): must be rejected.
		if pb := b.PayloadBytes(); pb > 0 {
			mut := append([]byte(nil), w.Bytes()...)
			// Payload bodies are the trailing region; corrupt inside the
			// last body we can find deterministically: flip the final byte
			// of the frame if the last message has a body, else skip.
			last := b[len(b)-1]
			if len(last.Body) > 0 {
				mut[len(mut)-1] ^= 0x01
				if _, _, err := UnmarshalAnnounceFrame(mut); err == nil {
					t.Fatalf("trial %d: corrupted frame accepted", trial)
				}
			}
		}
	}
}

// TestAnnounceDecodeAllocs is the in-place decode ratchet: a 32-message
// announce decodes into one Batch whose bodies are views into the frame,
// not 32 body copies.
func TestAnnounceDecodeAllocs(t *testing.T) {
	b := make(Batch, 32)
	for i := range b {
		b[i] = AppMsg{ID: types.MsgID{Sender: 1, Seq: uint64(10 + i)}, Body: bytes.Repeat([]byte{byte(i)}, 1024)}
	}
	d, err := DescriptorFor(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	var w Writer
	AppendAnnounceFrame(&w, d, b)
	frame := w.Bytes()
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := UnmarshalAnnounceFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("decoding a 32-message announce made %.0f allocations, want at most 2", allocs)
	}
}

// TestDiffuseDecodeAllocs is the decode ratchet of batches: a 16-message
// diffuse frame decodes into one Batch whose bodies are views into the
// frame, not 16 body copies.
func TestDiffuseDecodeAllocs(t *testing.T) {
	b := make(Batch, 16)
	for i := range b {
		b[i] = AppMsg{ID: types.MsgID{Sender: 1, Seq: uint64(i)}, Body: bytes.Repeat([]byte{byte(i)}, 64)}
	}
	var w Writer
	AppendBatchFrame(&w, b)
	frame := w.Bytes()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := UnmarshalFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("decoding a 16-message diffuse frame made %.0f allocations, want 1", allocs)
	}
	got, _ := UnmarshalFrame(frame)
	if n := testing.AllocsPerRun(100, func() { got, _ = AppendFrame(got, frame) }); n != 0 {
		t.Fatalf("AppendFrame into a reused batch made %.0f allocations, want 0", n)
	}
	if &got[3].Body[0] != &frame[len(frame)-12*(16+64)-64] || cap(got[3].Body) != 64 {
		t.Fatal("body 3 is not a clipped view into the frame")
	}
	// A batch decoded to be kept (UnmarshalBatch) copies its bodies into
	// one buffer: the slice and that buffer, nothing per body.
	allocs = testing.AllocsPerRun(100, func() { UnmarshalBatch(NewReader(frame[1:])) })
	if allocs != 2 {
		t.Fatalf("UnmarshalBatch of 16 messages made %.0f allocations, want 2", allocs)
	}
	kept := UnmarshalBatch(NewReader(frame[1:]))
	frame[len(frame)-1]++
	if kept[15].Body[63] != 15 || cap(kept[15].Body) != 64 {
		t.Fatal("UnmarshalBatch body aliases the frame or is not clipped")
	}
}
