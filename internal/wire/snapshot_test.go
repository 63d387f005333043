package wire

import (
	"errors"
	"reflect"
	"testing"

	"modab/internal/member"
	"modab/internal/types"
)

func encodeEnvelope(e SnapshotEnvelope) []byte {
	w := NewWriter(e.WireSize())
	e.Marshal(w)
	return w.Bytes()
}

func TestSnapshotEnvelopeRoundTrip(t *testing.T) {
	views := []member.View{
		{Epoch: 0, Activation: 0, Members: []types.ProcessID{0, 1, 2}},
		{Epoch: 1, Activation: 9, Members: []types.ProcessID{0, 1, 2, 3}},
		{Epoch: 2, Activation: 14, Members: []types.ProcessID{1, 2, 3}},
	}
	for _, e := range []SnapshotEnvelope{
		{Index: 7, Dedup: []byte{1, 2}, State: []byte("state")},
		{Index: 42, Dedup: []byte{3}, State: []byte{}, Views: views},
	} {
		data := encodeEnvelope(e)
		if len(data) != e.WireSize() {
			t.Fatalf("encoded %d bytes, WireSize %d", len(data), e.WireSize())
		}
		got, err := UnmarshalSnapshotEnvelope(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Index != e.Index || string(got.Dedup) != string(e.Dedup) || string(got.State) != string(e.State) ||
			!reflect.DeepEqual(got.Views, e.Views) {
			t.Fatalf("round trip: got %+v, want %+v", got, e)
		}
	}
}

// TestSnapshotEnvelopeRejectsBadViews: a malformed view list is a decode
// error, never a panic or a silently accepted history.
func TestSnapshotEnvelopeRejectsBadViews(t *testing.T) {
	view := func(epoch uint64, members ...types.ProcessID) member.View {
		return member.View{Epoch: epoch, Members: members}
	}
	good := encodeEnvelope(SnapshotEnvelope{Index: 3, Views: []member.View{view(0, 0, 1)}})
	hugeCount := append([]byte(nil), good...)
	hugeCount[8+4+4] = 0xff // the view count's high byte
	for name, data := range map[string][]byte{
		"count past the data":  hugeCount,
		"truncated view":       good[:len(good)-2],
		"no members":           encodeEnvelope(SnapshotEnvelope{Views: []member.View{view(0)}}),
		"unsorted members":     encodeEnvelope(SnapshotEnvelope{Views: []member.View{view(0, 2, 1)}}),
		"duplicate member":     encodeEnvelope(SnapshotEnvelope{Views: []member.View{view(0, 1, 1)}}),
		"negative member":      encodeEnvelope(SnapshotEnvelope{Views: []member.View{view(0, -3, 1)}}),
		"epoch not increasing": encodeEnvelope(SnapshotEnvelope{Views: []member.View{view(1, 0), view(1, 0, 1)}}),
		"trailing after views": append(append([]byte(nil), good...), 0),
	} {
		if _, err := UnmarshalSnapshotEnvelope(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if name != "truncated view" && name != "trailing after views" && !errors.Is(err, ErrBadViews) {
			t.Errorf("%s: error %v, want ErrBadViews", name, err)
		}
	}
}
