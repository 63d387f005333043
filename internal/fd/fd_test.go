package fd

import (
	"sync"
	"testing"
	"time"

	"modab/internal/types"
)

// changeLog records suspicion changes thread-safely.
type changeLog struct {
	mu      sync.Mutex
	changes []struct {
		p         types.ProcessID
		suspected bool
	}
}

func (c *changeLog) record(p types.ProcessID, s bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.changes = append(c.changes, struct {
		p         types.ProcessID
		suspected bool
	}{p, s})
}

func (c *changeLog) last() (types.ProcessID, bool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.changes) == 0 {
		return 0, false, false
	}
	l := c.changes[len(c.changes)-1]
	return l.p, l.suspected, true
}

func TestHeartbeatSuspectsSilentPeer(t *testing.T) {
	var sent sync.Map
	h := NewHeartbeat(0, 2, 5*time.Millisecond, 20*time.Millisecond,
		func(to types.ProcessID) { sent.Store(to, true) })
	defer h.Close()
	var log changeLog
	h.Start(log.record)

	deadline := time.Now().Add(2 * time.Second)
	for {
		if p, s, ok := log.last(); ok && p == 1 && s {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("silent peer never suspected")
		}
		time.Sleep(time.Millisecond)
	}
	if got := h.Suspects(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Suspects() = %v", got)
	}
	if _, ok := sent.Load(types.ProcessID(1)); !ok {
		t.Fatal("no heartbeats emitted")
	}
}

func TestHeartbeatUnsuspectsOnHeard(t *testing.T) {
	h := NewHeartbeat(0, 2, 5*time.Millisecond, 20*time.Millisecond, func(types.ProcessID) {})
	defer h.Close()
	var log changeLog
	h.Start(log.record)

	// Wait for suspicion, then revive.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if p, s, ok := log.last(); ok && p == 1 && s {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never suspected")
		}
		time.Sleep(time.Millisecond)
	}
	h.Heard(1)
	if p, s, _ := log.last(); p != 1 || s {
		t.Fatalf("unsuspect not reported: %v %v", p, s)
	}
	if got := h.Suspects(); len(got) != 0 {
		t.Fatalf("still suspected: %v", got)
	}
}

func TestHeartbeatKeepAliveNeverSuspects(t *testing.T) {
	h := NewHeartbeat(0, 2, 5*time.Millisecond, 25*time.Millisecond, func(types.ProcessID) {})
	defer h.Close()
	var log changeLog
	h.Start(log.record)
	// Feed liveness faster than the timeout for a while.
	for i := 0; i < 20; i++ {
		h.Heard(1)
		time.Sleep(5 * time.Millisecond)
	}
	if _, s, ok := log.last(); ok && s {
		t.Fatal("suspected a live peer")
	}
}

func TestHeartbeatHeardSelfIgnored(t *testing.T) {
	// Calling Heard(self) must not panic or create state.
	h := NewHeartbeat(0, 3, time.Hour, time.Hour, func(types.ProcessID) {})
	defer h.Close()
	h.Heard(0)
	if (*h.peers.Load())[0] != nil {
		t.Fatal("self monitored")
	}
}

func TestHeartbeatCloseIdempotent(t *testing.T) {
	h := NewHeartbeat(0, 3, time.Millisecond, 5*time.Millisecond, func(types.ProcessID) {})
	h.Start(func(types.ProcessID, bool) {})
	h.Close()
	h.Close()
}

// Suspects returns the current suspicion list (diagnostics).
func (h *Heartbeat) Suspects() []types.ProcessID {
	var out []types.ProcessID
	for p, pe := range *h.peers.Load() {
		if pe != nil && pe.suspected.Load() {
			out = append(out, types.ProcessID(p))
		}
	}
	return out
}
