package batch

import (
	"testing"
	"time"

	"modab/internal/types"
	"modab/internal/wire"
)

func mkMsg(seq uint64, bodyLen int) wire.AppMsg {
	return wire.AppMsg{
		ID:   types.MsgID{Sender: 0, Seq: seq},
		Body: make([]byte, bodyLen),
	}
}

func TestConfigEnabledAndValidate(t *testing.T) {
	var zero Config
	if zero.Enabled() {
		t.Fatal("zero config must be disabled")
	}
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
	ok := Config{MaxMsgs: 8, MaxBytes: 4096, MaxDelay: time.Millisecond}
	if !ok.Enabled() {
		t.Fatal("MaxMsgs >= 1 must enable batching")
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (Config{MaxMsgs: 8}).Validate(); err == nil {
		t.Fatal("enabled config without MaxDelay accepted")
	}
	if err := (Config{MaxMsgs: 8, MaxBytes: -1, MaxDelay: time.Millisecond}).Validate(); err == nil {
		t.Fatal("negative MaxBytes accepted")
	}
}

func TestCountTriggerSeals(t *testing.T) {
	a := NewAccumulator(Config{MaxMsgs: 3, MaxDelay: time.Millisecond})
	sealed, act := a.Add(mkMsg(1, 8))
	if sealed != nil || act != TimerArm {
		t.Fatalf("first add: sealed=%v act=%d, want arm", sealed, act)
	}
	sealed, act = a.Add(mkMsg(2, 8))
	if sealed != nil || act != TimerNone {
		t.Fatalf("second add: sealed=%v act=%d, want none", sealed, act)
	}
	sealed, act = a.Add(mkMsg(3, 8))
	if len(sealed) != 1 || len(sealed[0]) != 3 {
		t.Fatalf("count trigger: sealed = %v", sealed)
	}
	if act != TimerCancel {
		t.Fatalf("count trigger: act = %d, want cancel", act)
	}
	if a.Len() != 0 || a.bytes != 0 {
		t.Fatal("accumulator not reset after seal")
	}
}

func TestSingleMessageBatch(t *testing.T) {
	// MaxMsgs == 1 degenerates to one batch per message.
	a := NewAccumulator(Config{MaxMsgs: 1, MaxDelay: time.Millisecond})
	sealed, act := a.Add(mkMsg(1, 8))
	if len(sealed) != 1 || len(sealed[0]) != 1 {
		t.Fatalf("sealed = %v", sealed)
	}
	if act != TimerCancel {
		t.Fatalf("act = %d, want cancel", act)
	}
}

func TestMaxBytesOverflowSplits(t *testing.T) {
	// Each message encodes to 16 (header) + 100 (body) = 116 bytes; a cap
	// of 300 holds two, and the third must split into a fresh batch.
	a := NewAccumulator(Config{MaxMsgs: 100, MaxBytes: 300, MaxDelay: time.Millisecond})
	if sealed, _ := a.Add(mkMsg(1, 100)); sealed != nil {
		t.Fatalf("sealed early: %v", sealed)
	}
	if sealed, _ := a.Add(mkMsg(2, 100)); sealed != nil {
		t.Fatalf("sealed early: %v", sealed)
	}
	sealed, act := a.Add(mkMsg(3, 100))
	if len(sealed) != 1 || len(sealed[0]) != 2 {
		t.Fatalf("overflow split: sealed = %v", sealed)
	}
	if act != TimerArm {
		t.Fatalf("overflow split must restart the age clock, act = %d", act)
	}
	if a.Len() != 1 {
		t.Fatalf("overflowing message must start the next batch, len = %d", a.Len())
	}
	if a.bytes != mkMsg(3, 100).WireSize() {
		t.Fatalf("bytes = %d", a.bytes)
	}
}

func TestOversizedMessageFormsOwnBatch(t *testing.T) {
	// A message above MaxBytes seals immediately: first the resident batch
	// (overflow split), then itself (byte trigger) — two seals in one Add.
	a := NewAccumulator(Config{MaxMsgs: 100, MaxBytes: 64, MaxDelay: time.Millisecond})
	if sealed, _ := a.Add(mkMsg(1, 10)); sealed != nil {
		t.Fatalf("sealed early: %v", sealed)
	}
	sealed, act := a.Add(mkMsg(2, 1000))
	if len(sealed) != 2 {
		t.Fatalf("want 2 sealed batches, got %v", sealed)
	}
	if len(sealed[0]) != 1 || sealed[0][0].ID.Seq != 1 {
		t.Fatalf("first sealed = %v", sealed[0])
	}
	if len(sealed[1]) != 1 || sealed[1][0].ID.Seq != 2 {
		t.Fatalf("second sealed = %v", sealed[1])
	}
	if act != TimerCancel {
		t.Fatalf("act = %d, want cancel", act)
	}
	if a.Len() != 0 {
		t.Fatal("accumulator must be empty")
	}
}

func TestFlushEmptyReturnsNil(t *testing.T) {
	// The age-trigger path must tolerate a timer that fires after a count
	// trigger already sealed the batch.
	a := NewAccumulator(Config{MaxMsgs: 4, MaxDelay: time.Millisecond})
	if b := a.Flush(); b != nil {
		t.Fatalf("empty flush = %v", b)
	}
	a.Add(mkMsg(1, 8))
	if b := a.Flush(); len(b) != 1 {
		t.Fatalf("flush = %v", b)
	}
	if b := a.Flush(); b != nil {
		t.Fatalf("second flush = %v", b)
	}
}
