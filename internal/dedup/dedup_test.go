package dedup

import (
	"testing"

	"modab/internal/types"
)

func TestSetWatermarkAdvance(t *testing.T) {
	s := NewSet()
	if s.Seen(1) {
		t.Fatal("fresh set claims seq 1 seen")
	}
	s.Mark(1)
	s.Mark(2)
	if got := s.watermark; got != 2 {
		t.Fatalf("watermark = %d, want 2", got)
	}
	// Out-of-order marks park in the sparse set until the gap fills.
	s.Mark(5)
	if got := s.watermark; got != 2 {
		t.Fatalf("watermark after sparse mark = %d, want 2", got)
	}
	if !s.Seen(5) || s.Seen(4) {
		t.Fatal("sparse membership wrong")
	}
	if got := s.MaxSeen(); got != 5 {
		t.Fatalf("MaxSeen = %d, want 5", got)
	}
	s.Mark(3)
	s.Mark(4)
	if got := s.watermark; got != 5 {
		t.Fatalf("watermark after gap fill = %d, want 5", got)
	}
	// Re-marking below the watermark is a no-op.
	s.Mark(2)
	if got := s.watermark; got != 5 {
		t.Fatalf("watermark after stale mark = %d, want 5", got)
	}
}

func TestMapPerSender(t *testing.T) {
	m := NewMap(3)
	a := types.MsgID{Sender: 0, Seq: 1}
	b := types.MsgID{Sender: 1, Seq: 1}
	m.Mark(a)
	if !m.Seen(a) {
		t.Fatal("marked id not seen")
	}
	if m.Seen(b) {
		t.Fatal("sender 1 inherited sender 0's marks")
	}
	m.Mark(b)
	if !m.Seen(b) {
		t.Fatal("second sender's mark lost")
	}
}
