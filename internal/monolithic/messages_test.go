package monolithic

import (
	"testing"

	"modab/internal/types"
	"modab/internal/wire"
)

func testBatch(sender types.ProcessID, seqs ...uint64) wire.Batch {
	b := make(wire.Batch, 0, len(seqs))
	for _, s := range seqs {
		b = append(b, wire.AppMsg{ID: types.MsgID{Sender: sender, Seq: s}, Body: []byte{byte(s)}})
	}
	return b
}

// TestMessageRoundTrips covers every monolithic wire variant.
func TestMessageRoundTrips(t *testing.T) {
	msgs := []message{
		{Type: mPropDec, Instance: 5, Round: 1, Batch: testBatch(0, 1, 2),
			PrevDecided: true, PrevK: 4, PrevRound: 1},
		{Type: mPropDec, Instance: 1, Round: 1, Batch: testBatch(0, 1)},
		{Type: mAckDiff, Instance: 5, Round: 1, Batch: testBatch(1, 3)},
		{Type: mAckDiff, Instance: 5, Round: 1}, // empty piggyback
		{Type: mEstimate, Instance: 5, Round: 2, TS: 1, HasValue: true,
			Batch: testBatch(0, 1), Piggyback: testBatch(2, 9)},
		{Type: mNack, Instance: 5, Round: 1},
		{Type: mForward, Instance: 5, Round: 1, Batch: testBatch(2, 7)},
		{Type: mDecisionOnly, Instance: 5, Round: 1},
		{Type: mDecisionReq, Instance: 5},
		{Type: mDecisionFull, Instance: 5, Round: 2, Batch: testBatch(0, 1)},
	}
	for _, m := range msgs {
		got, err := unmarshalMessage(m.marshal())
		if err != nil {
			t.Fatalf("%s: %v", m.Type, err)
		}
		if got.Type != m.Type || got.Instance != m.Instance || got.Round != m.Round ||
			got.PrevDecided != m.PrevDecided || got.PrevK != m.PrevK ||
			got.PrevRound != m.PrevRound || got.TS != m.TS || got.HasValue != m.HasValue ||
			len(got.Batch) != len(m.Batch) || len(got.Piggyback) != len(m.Piggyback) {
			t.Fatalf("%s: mismatch %+v vs %+v", m.Type, got, m)
		}
	}
}

func TestMessageDecodeErrors(t *testing.T) {
	if _, err := unmarshalMessage(nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := unmarshalMessage([]byte{0xEE, 0, 0}); err == nil {
		t.Fatal("unknown type accepted")
	}
	// An mFrame bypasses the codec: HandleMessage routes it first.
	if _, err := unmarshalMessage(asFrame(func(w *wire.Writer) { wire.AppendRecoverReqFrame(w, wire.RecoverReq{From: 1}) })); err == nil {
		t.Fatal("mFrame decoded as a message")
	}
	// Truncated PropDec.
	m := message{Type: mPropDec, Instance: 1, Round: 1, Batch: testBatch(0, 1)}
	data := m.marshal()
	if _, err := unmarshalMessage(data[:len(data)-3]); err == nil {
		t.Fatal("truncated message accepted")
	}
	// Trailing garbage.
	if _, err := unmarshalMessage(append(data, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestTypeStrings(t *testing.T) {
	names := map[mtype]string{
		mPropDec: "proposal+decision", mAckDiff: "ack+diffusion",
		mEstimate: "estimate", mNack: "nack", mForward: "forward",
		mDecisionOnly: "decision", mDecisionReq: "decision-req",
		mDecisionFull: "decision-full", mFrame: "frame",
	}
	for typ, want := range names {
		if got := typ.String(); got != want {
			t.Errorf("%d: %q != %q", typ, got, want)
		}
	}
	if mtype(77).String() != "mtype(77)" {
		t.Error("unknown mtype string")
	}
}

// frameOf returns the tail or head frame an mFrame message carries (nil:
// the message is a §4 one).
func frameOf(data []byte) []byte {
	if len(data) > 0 && mtype(data[0]) == mFrame {
		return data[1:]
	}
	return nil
}

// asFrame wraps the wire frame fill appends as an mFrame message.
func asFrame(fill func(w *wire.Writer)) []byte {
	w := wire.NewWriter(64)
	w.Uint8(uint8(mFrame))
	fill(w)
	return w.Bytes()
}
