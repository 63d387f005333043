package flow

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"modab/internal/types"
)

func TestAdmitUntilFull(t *testing.T) {
	c := NewController(2, 3)
	var ids []types.MsgID
	for i := 0; i < 3; i++ {
		id, err := c.Admit()
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		if id.Sender != 2 {
			t.Fatalf("sender = %v", id.Sender)
		}
		ids = append(ids, id)
	}
	if _, err := c.Admit(); !errors.Is(err, types.ErrFlowControl) {
		t.Fatalf("want ErrFlowControl, got %v", err)
	}
	// Releasing one slot admits one more.
	if err := c.Delivered(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
}

func TestSequenceNumbersMonotone(t *testing.T) {
	c := NewController(0, 1)
	var last uint64
	for i := 0; i < 10; i++ {
		id, err := c.Admit()
		if err != nil {
			t.Fatal(err)
		}
		if id.Seq <= last {
			t.Fatalf("seq %d not > %d", id.Seq, last)
		}
		last = id.Seq
		if err := c.Delivered(id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestForeignAndDuplicateRelease(t *testing.T) {
	c := NewController(1, 1)
	// Foreign messages are ignored.
	if err := c.Delivered(types.MsgID{Sender: 9, Seq: 1}); err != nil {
		t.Fatalf("foreign release: %v", err)
	}
	id, _ := c.Admit()
	if err := c.Delivered(id); err != nil {
		t.Fatal(err)
	}
	// Double release of an own message is an error (duplicate delivery).
	if err := c.Delivered(id); err == nil {
		t.Fatal("duplicate release not detected")
	}
}

func TestWindowClampedToOne(t *testing.T) {
	c := NewController(0, 0)
	if c.window != 1 {
		t.Fatalf("window = %d, want clamp to 1", c.window)
	}
}

// TestInFlightNeverExceedsWindowQuick drives a random admit/release
// schedule and checks the core invariant.
func TestInFlightNeverExceedsWindowQuick(t *testing.T) {
	f := func(seed int64, rawWindow uint8) bool {
		window := int(rawWindow%8) + 1
		c := NewController(0, window)
		rng := rand.New(rand.NewSource(seed))
		var live []types.MsgID
		for step := 0; step < 200; step++ {
			if rng.Intn(2) == 0 {
				id, err := c.Admit()
				if err == nil {
					live = append(live, id)
				} else if len(live) != window {
					return false // rejected while not full
				}
			} else if len(live) > 0 {
				i := rng.Intn(len(live))
				if err := c.Delivered(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if c.InFlight() != len(live) || c.InFlight() > window {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseDelivered(t *testing.T) {
	c := NewController(1, 4)
	for i := 0; i < 3; i++ {
		if _, err := c.Admit(); err != nil {
			t.Fatal(err)
		}
	}
	var asked []types.MsgID
	c.ReleaseDelivered(func(id types.MsgID) bool {
		asked = append(asked, id)
		return id.Seq != 2
	})
	if c.InFlight() != 1 || len(asked) != 3 {
		t.Fatalf("in-flight %d after releasing 2 of 3 (asked about %v)", c.InFlight(), asked)
	}
	for _, id := range asked {
		if id.Sender != 1 {
			t.Fatalf("asked about a foreign message %v", id)
		}
	}
	if err := c.Delivered(types.MsgID{Sender: 1, Seq: 2}); err != nil {
		t.Fatalf("the kept slot must still release normally: %v", err)
	}
}
