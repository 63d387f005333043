package member

import (
	"testing"

	"modab/internal/types"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpAdd, Target: 3, BaseEpoch: 0},
		{Kind: OpRemove, Target: 0, BaseEpoch: 7},
		{Kind: OpAdd, Target: 12, BaseEpoch: 2, Addr: "127.0.0.1:9003"},
	}
	for _, want := range ops {
		body := EncodeOp(want)
		if !IsConfigOp(body) {
			t.Fatalf("IsConfigOp(%v) = false", want)
		}
		got, ok := DecodeOp(body)
		if !ok || got != want {
			t.Fatalf("DecodeOp round trip: got %v ok=%v, want %v", got, ok, want)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("hello"),
		opMagic, // magic with no payload
		append(EncodeOp(Op{Kind: OpAdd, Target: 1}), 0xff), // trailing junk
		EncodeOp(Op{Kind: OpKind(9), Target: 1}),           // bad kind
	}
	for i, body := range cases {
		if _, ok := DecodeOp(body); ok {
			t.Fatalf("case %d: DecodeOp accepted malformed body", i)
		}
	}
	if IsConfigOp([]byte("app payload")) {
		t.Fatal("IsConfigOp misclassified an application payload")
	}
}

func TestHistoryBootView(t *testing.T) {
	h := NewHistory(5)
	v := h.Current()
	if v.Epoch != 0 || v.Activation != 0 || len(v.Members) != 5 {
		t.Fatalf("boot view = %+v", v)
	}
	if v.Majority() != 3 {
		t.Fatalf("majority(5) = %d", v.Majority())
	}
	// Epoch-0 coordinator rotation must match the paper's (r-1) mod n.
	for r := uint32(1); r <= 10; r++ {
		want := types.ProcessID((int(r) - 1) % 5)
		if got := v.Coordinator(r); got != want {
			t.Fatalf("coordinator(r=%d) = %v, want %v", r, got, want)
		}
	}
}

// TestQuorumShrinksAtBoundary is the satellite-1 regression: a decided
// remove from n=5 must shrink the quorum on the very next governed
// instance, not keep deciding with the stale majority of 3... which for
// n=4 happens to coincide, so also check 5→4→3 where maj drops 3→3→2.
func TestQuorumShrinksAtBoundary(t *testing.T) {
	h := NewHistory(5)
	v1, ok := h.Apply(Op{Kind: OpRemove, Target: 4, BaseEpoch: 0}, 10, 1)
	if !ok {
		t.Fatal("remove rejected")
	}
	if v1.Activation != 11 {
		t.Fatalf("activation = %d, want 11", v1.Activation)
	}
	if got := h.At(10).Majority(); got != 3 {
		t.Fatalf("majority at deciding instance = %d, want old quorum 3", got)
	}
	if got := h.At(11).Majority(); got != 3 {
		t.Fatalf("majority(4) at boundary = %d, want 3", got)
	}
	v2, ok := h.Apply(Op{Kind: OpRemove, Target: 3, BaseEpoch: 1}, 20, 1)
	if !ok {
		t.Fatal("second remove rejected")
	}
	if got := h.At(v2.Activation).Majority(); got != 2 {
		t.Fatalf("majority(3) after second remove = %d, want 2", got)
	}
	if got := h.At(20).Majority(); got != 3 {
		t.Fatalf("instance 20 must still use the 4-member view, got maj %d", got)
	}
}

func TestEpochCAS(t *testing.T) {
	h := NewHistory(3)
	if _, ok := h.Apply(Op{Kind: OpAdd, Target: 3, BaseEpoch: 0}, 5, 2); !ok {
		t.Fatal("first add rejected")
	}
	// A concurrent op issued against epoch 0 loses the CAS.
	if _, ok := h.Apply(Op{Kind: OpAdd, Target: 4, BaseEpoch: 0}, 6, 2); ok {
		t.Fatal("stale-epoch op applied")
	}
	// Replaying the winning op (crash recovery) is also rejected: the
	// CAS makes application idempotent.
	if _, ok := h.Apply(Op{Kind: OpAdd, Target: 3, BaseEpoch: 0}, 5, 2); ok {
		t.Fatal("replayed op applied twice")
	}
	if got := len(h.Views()); got != 2 {
		t.Fatalf("views = %d, want 2", got)
	}
}

func TestApplyRejections(t *testing.T) {
	h := NewHistory(2)
	if _, ok := h.Apply(Op{Kind: OpAdd, Target: 1, BaseEpoch: 0}, 1, 1); ok {
		t.Fatal("duplicate add applied")
	}
	if _, ok := h.Apply(Op{Kind: OpRemove, Target: 5, BaseEpoch: 0}, 1, 1); ok {
		t.Fatal("remove of non-member applied")
	}
	h2 := NewHistory(1)
	if _, ok := h2.Apply(Op{Kind: OpRemove, Target: 0, BaseEpoch: 0}, 1, 1); ok {
		t.Fatal("remove emptied the group")
	}
}

func TestRemoveAndReAdd(t *testing.T) {
	h := NewHistory(3)
	if _, ok := h.Apply(Op{Kind: OpRemove, Target: 1, BaseEpoch: 0}, 4, 1); !ok {
		t.Fatal("remove rejected")
	}
	v, ok := h.Apply(Op{Kind: OpAdd, Target: 1, BaseEpoch: 1}, 9, 1)
	if !ok {
		t.Fatal("re-add rejected")
	}
	if !v.Contains(1) || len(v.Members) != 3 {
		t.Fatalf("re-add view = %+v", v)
	}
	if h.At(7).Contains(1) {
		t.Fatal("instance 7 should be governed by the removed view")
	}
}

func TestActivationMonotonic(t *testing.T) {
	h := NewHistory(3)
	v1, _ := h.Apply(Op{Kind: OpAdd, Target: 3, BaseEpoch: 0}, 10, 8)
	if v1.Activation != 18 {
		t.Fatalf("activation = %d, want 18", v1.Activation)
	}
	// An op deciding inside the previous window still activates after it.
	v2, ok := h.Apply(Op{Kind: OpRemove, Target: 0, BaseEpoch: 1}, 11, 1)
	if !ok {
		t.Fatal("second op rejected")
	}
	if v2.Activation <= v1.Activation {
		t.Fatalf("activation %d not after previous %d", v2.Activation, v1.Activation)
	}
}

func TestHistoryFromSeedAndRank(t *testing.T) {
	seed := View{Epoch: 3, Activation: 40, Members: []types.ProcessID{0, 2, 5}}
	h := NewHistoryFrom(seed)
	if got := h.At(39); got.Epoch != 3 {
		t.Fatalf("At below seed activation = %+v", got)
	}
	// Coordinator rotates over sorted members, not raw IDs.
	if c := h.Current().Coordinator(2); c != 2 {
		t.Fatalf("coordinator(2) = %v, want p3 (id 2)", c)
	}
}

func TestStampValidatesAgainstView(t *testing.T) {
	v := View{Epoch: 4, Members: []types.ProcessID{0, 2}}
	one := View{Epoch: 4, Members: []types.ProcessID{2}}
	for _, tc := range []struct {
		name string
		view View
		op   Op
		ok   bool
	}{
		{"add newcomer", v, Op{Kind: OpAdd, Target: 1}, true},
		{"add member", v, Op{Kind: OpAdd, Target: 2}, false},
		{"add negative", v, Op{Kind: OpAdd, Target: types.Nobody}, false},
		{"remove member", v, Op{Kind: OpRemove, Target: 0}, true},
		{"remove stranger", v, Op{Kind: OpRemove, Target: 1}, false},
		{"remove last member", one, Op{Kind: OpRemove, Target: 2}, false},
		{"unknown kind", v, Op{Kind: 9, Target: 1}, false},
	} {
		op, err := tc.view.Stamp(tc.op)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Stamp error = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok && op.BaseEpoch != 4 {
			t.Errorf("%s: stamped epoch %d, want the view's", tc.name, op.BaseEpoch)
		}
	}
}

func TestOthersAndNextPeer(t *testing.T) {
	v := View{Members: []types.ProcessID{0, 2, 5}}
	if v.Others(2) != 2 || v.Others(7) != 3 {
		t.Fatalf("Others = %d (member), %d (non-member)", v.Others(2), v.Others(7))
	}
	none := map[types.ProcessID]bool{}
	for _, tc := range []struct {
		self, prev types.ProcessID
		suspected  map[types.ProcessID]bool
		want       types.ProcessID
	}{
		{0, 0, none, 2},
		{0, 2, none, 5},
		{0, 5, none, 2},            // wraps past self
		{2, types.Nobody, none, 0}, // fresh cursor starts at the first member
		{0, 0, map[types.ProcessID]bool{2: true}, 5},
		{0, 0, map[types.ProcessID]bool{2: true, 5: true}, 2}, // all suspected: rotate anyway
		{0, 2, map[types.ProcessID]bool{2: true, 5: true}, 5},
	} {
		if got := v.NextPeer(tc.self, tc.prev, tc.suspected); got != tc.want {
			t.Errorf("NextPeer(self %v, prev %v, %v) = %v, want %v", tc.self, tc.prev, tc.suspected, got, tc.want)
		}
	}
	if got := (View{Members: []types.ProcessID{3}}).NextPeer(3, 3, none); got != types.Nobody {
		t.Fatalf("singleton view rotated to %v", got)
	}
}
