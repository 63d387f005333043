// Package fd implements the local failure-detector module of the system
// model (paper §2.1): each process maintains a list of processes it
// currently suspects of having crashed. The list may be wrong (◇S-style
// unreliability); the consensus protocols tolerate wrong suspicions and
// only need the crashed coordinator to be suspected eventually.
//
// The real-time implementation is heartbeat-based: every process
// broadcasts heartbeats; a peer silent for longer than the timeout is
// suspected, and unsuspected again as soon as it is heard from.
package fd

import (
	"slices"
	"sync"
	"time"

	"modab/internal/types"
)

// ChangeFunc observes suspicion changes; the detector invokes it serially.
type ChangeFunc func(p types.ProcessID, suspected bool)

// Heartbeat is the timeout-based failure detector. The runtime calls Heard
// on every heartbeat (and on every protocol message, which makes
// suspicions strictly more accurate).
type Heartbeat struct {
	self    types.ProcessID
	timeout time.Duration
	period  time.Duration
	send    func(to types.ProcessID) // emits one heartbeat to a peer

	// reportMu serializes suspicion transitions WITH their onChange
	// reports. Under message loss the checker (silence threshold) and
	// Heard (a late heartbeat) race on the same peer: deciding a
	// transition under mu but invoking the callback after unlocking let
	// the two reports cross — the consumer could see "unsuspected" before
	// the matching "suspected", or a report contradicting the final state.
	// Decide-and-report is atomic under reportMu; mu alone still guards
	// the maps for lock-free readers (Suspects). Lock order: reportMu
	// before mu, never the reverse. onChange must not call back into the
	// detector.
	reportMu  sync.Mutex
	mu        sync.Mutex
	members   map[types.ProcessID]bool // peers currently monitored (never self)
	lastSeen  map[types.ProcessID]time.Time
	suspected map[types.ProcessID]bool
	onChange  ChangeFunc
	closed    bool
	done      chan struct{}
	wg        sync.WaitGroup
}

// NewHeartbeat creates a heartbeat detector for process self in a group
// of n. send emits one heartbeat to a peer (wired to the transport by the
// runtime); period is the emission interval and timeout the silence
// threshold (timeout should be several periods).
func NewHeartbeat(self types.ProcessID, n int, period, timeout time.Duration,
	send func(to types.ProcessID)) *Heartbeat {
	members := make(map[types.ProcessID]bool, n)
	for i := 0; i < n; i++ {
		if p := types.ProcessID(i); p != self {
			members[p] = true
		}
	}
	return &Heartbeat{
		self:      self,
		timeout:   timeout,
		period:    period,
		send:      send,
		members:   members,
		lastSeen:  make(map[types.ProcessID]time.Time, n),
		suspected: make(map[types.ProcessID]bool, n),
		done:      make(chan struct{}),
	}
}

// SetMembers replaces the monitor set with the given group view (self is
// excluded automatically). State of removed peers is pruned — without
// this, a removed process stays suspected forever, ring dissemination
// keeps skipping a hole, and a later re-add of the same ID would inherit
// a stale suspicion. Newly added peers start with a fresh grace period
// and are unsuspected; their first suspicion (and the unsuspect when
// they are heard) is therefore reported exactly once, as for any peer.
func (h *Heartbeat) SetMembers(members []types.ProcessID) {
	h.reportMu.Lock()
	defer h.reportMu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	want := make(map[types.ProcessID]bool, len(members))
	for _, p := range members {
		if p != h.self {
			want[p] = true
		}
	}
	now := time.Now()
	for p := range want {
		if !h.members[p] {
			h.lastSeen[p] = now // grace period for joiners
		}
	}
	for p := range h.members {
		if !want[p] {
			delete(h.lastSeen, p)
			delete(h.suspected, p)
		}
	}
	h.members = want
}

// Start begins monitoring and reporting changes to onChange.
func (h *Heartbeat) Start(onChange ChangeFunc) {
	h.mu.Lock()
	h.onChange = onChange
	now := time.Now()
	for p := range h.members {
		h.lastSeen[p] = now // grace period at startup
	}
	h.mu.Unlock()
	h.wg.Add(1)
	go h.loop()
}

// loop emits heartbeats and checks for silence.
func (h *Heartbeat) loop() {
	defer h.wg.Done()
	ticker := time.NewTicker(h.period)
	defer ticker.Stop()
	for {
		select {
		case <-h.done:
			return
		case <-ticker.C:
		}
		h.mu.Lock()
		peers := make([]types.ProcessID, 0, len(h.members))
		for p := range h.members {
			peers = append(peers, p)
		}
		h.mu.Unlock()
		for _, p := range peers {
			h.send(p)
		}
		h.check()
	}
}

// check updates the suspicion list from the silence threshold. Holding
// reportMu across decide-and-report keeps the callback sequence identical
// to the transition sequence (see the field comment).
func (h *Heartbeat) check() {
	h.reportMu.Lock()
	defer h.reportMu.Unlock()
	now := time.Now()
	var changes []types.ProcessID
	h.mu.Lock()
	for p := range h.members {
		silent := now.Sub(h.lastSeen[p]) > h.timeout
		if silent != h.suspected[p] {
			h.suspected[p] = silent
			changes = append(changes, p)
		}
	}
	slices.Sort(changes)
	cb := h.onChange
	suspectedNow := make(map[types.ProcessID]bool, len(changes))
	for _, p := range changes {
		suspectedNow[p] = h.suspected[p]
	}
	h.mu.Unlock()
	if cb == nil {
		return
	}
	for _, p := range changes {
		cb(p, suspectedNow[p])
	}
}

// Heard records a sign of life from p (a heartbeat or any message). The
// common case — the peer is not suspected — updates lastSeen under mu
// alone and never touches reportMu: the runtime calls Heard on every
// protocol message, and serializing that hot path behind the checker's
// callback sequence would stall the transport reader. Refreshing
// lastSeen before the fast-path read means
// a concurrent check() computes silent=false and cannot introduce a
// transition this call would have to report. Only an actual unsuspect
// transition takes the slow, serialized path.
func (h *Heartbeat) Heard(p types.ProcessID) {
	if p == h.self {
		return
	}
	h.mu.Lock()
	if !h.members[p] {
		// A removed peer's late frames must not resurrect its FD state.
		h.mu.Unlock()
		return
	}
	h.lastSeen[p] = time.Now()
	suspected := h.suspected[p]
	h.mu.Unlock()
	if !suspected {
		return
	}
	h.reportMu.Lock()
	defer h.reportMu.Unlock()
	h.mu.Lock()
	if !h.members[p] {
		h.mu.Unlock()
		return
	}
	h.lastSeen[p] = time.Now()
	wasSuspected := h.suspected[p]
	if wasSuspected {
		h.suspected[p] = false
	}
	cb := h.onChange
	h.mu.Unlock()
	if wasSuspected && cb != nil {
		cb(p, false)
	}
}

// Close stops the detector.
func (h *Heartbeat) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.mu.Unlock()
	close(h.done)
	h.wg.Wait()
}
