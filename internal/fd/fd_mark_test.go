package fd

import (
	"testing"
	"time"

	"modab/internal/types"
)

// TestHeardPeerNeverSuspected: a member heard every 10 ms is never
// suspected, though Heard only marks it and the tick folds the mark into
// its last-seen time.
func TestHeardPeerNeverSuspected(t *testing.T) {
	h := NewHeartbeat(0, 2, 10*time.Millisecond, 100*time.Millisecond, func(types.ProcessID) {})
	defer h.Close()
	var log changeLog
	h.Start(log.record)
	for i := 0; i < 50; i++ {
		h.Heard(1)
		time.Sleep(10 * time.Millisecond)
	}
	if p, s, ok := log.last(); ok {
		t.Fatalf("a member heard every 10ms was reported (p%d suspected=%v)", p, s)
	}
}

// TestSilentPeerSuspicionBounds: a member that falls silent is suspected
// no earlier than the timeout after it was last heard — its mark is
// folded in at a tick, never before the frame — and no later than one
// period after that, plus scheduling slack.
func TestSilentPeerSuspicionBounds(t *testing.T) {
	const period, timeout, slack = 10 * time.Millisecond, 60 * time.Millisecond, 100 * time.Millisecond
	suspectedAt := make(chan time.Time, 1)
	h := NewHeartbeat(0, 2, period, timeout, func(types.ProcessID) {})
	defer h.Close()
	h.Start(func(_ types.ProcessID, suspected bool) {
		if suspected {
			select {
			case suspectedAt <- time.Now():
			default:
			}
		}
	})
	for i := 0; i < 5; i++ {
		h.Heard(1)
		time.Sleep(period)
	}
	last := time.Now()
	h.Heard(1)
	select {
	case at := <-suspectedAt:
		if d := at.Sub(last); d < timeout || d > timeout+period+slack {
			t.Fatalf("suspected %v after last heard, want within [%v, %v]", d, timeout, timeout+period+slack)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("silent member never suspected")
	}
}
