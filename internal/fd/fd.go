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
	"sync"
	"sync/atomic"
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
	// transition under a lock but invoking the callback after unlocking
	// let the two reports cross — the consumer could see "unsuspected"
	// before the matching "suspected", or a report contradicting the final
	// state. Decide-and-report is atomic under reportMu, which also guards
	// every peer's lastSeen and onChange. onChange must not call back into
	// the detector.
	reportMu sync.Mutex
	// peers holds the monitored members (never self) indexed by ID, nil
	// elsewhere: SetMembers publishes a new table under reportMu, and
	// Heard and the heartbeat loop read it without a lock.
	peers    atomic.Pointer[[]*peer]
	onChange ChangeFunc
	stop     sync.Once
	done     chan struct{}
	wg       sync.WaitGroup
}

// peer is one monitored member: Heard sets heard, the next tick folds it
// into lastSeen, and suspected changes only under reportMu.
type peer struct {
	heard, suspected atomic.Bool
	lastSeen         time.Time
}

// NewHeartbeat creates a heartbeat detector for process self in a group
// of n. send emits one heartbeat to a peer (wired to the transport by the
// runtime); period is the emission interval and timeout the silence
// threshold (timeout should be several periods).
func NewHeartbeat(self types.ProcessID, n int, period, timeout time.Duration,
	send func(to types.ProcessID)) *Heartbeat {
	h := &Heartbeat{self: self, timeout: timeout, period: period, send: send, done: make(chan struct{})}
	h.peers.Store(new([]*peer))
	group := make([]types.ProcessID, n)
	for i := range group {
		group[i] = types.ProcessID(i)
	}
	h.setMembers(group, time.Time{}) // Start gives every member its grace period
	return h
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
	h.setMembers(members, time.Now())
}

// setMembers publishes the table of members, keeping the state of those
// already monitored; joiners are last seen at now.
func (h *Heartbeat) setMembers(members []types.ProcessID, now time.Time) {
	old, table := *h.peers.Load(), []*peer(nil)
	for _, p := range members {
		if p == h.self || p < 0 {
			continue
		}
		if int(p) >= len(table) {
			table = append(table, make([]*peer, int(p)+1-len(table))...)
		}
		table[p] = &peer{lastSeen: now}
		if int(p) < len(old) && old[p] != nil {
			table[p] = old[p] // a member stays monitored as it was
		}
	}
	h.peers.Store(&table)
}

// Start begins monitoring and reporting changes to onChange.
func (h *Heartbeat) Start(onChange ChangeFunc) {
	h.reportMu.Lock()
	h.onChange = onChange
	now := time.Now()
	for _, pe := range *h.peers.Load() {
		if pe != nil {
			pe.lastSeen = now // grace period at startup
		}
	}
	h.reportMu.Unlock()
	h.wg.Add(1)
	go h.loop()
}

// loop emits heartbeats every period and checks for silence four times a
// period, so a heard mark is folded in at most a quarter period late.
func (h *Heartbeat) loop() {
	defer h.wg.Done()
	ticker := time.NewTicker(h.period / 4)
	defer ticker.Stop()
	for tick := 0; ; tick++ {
		select {
		case <-h.done:
			return
		case <-ticker.C:
		}
		for p, pe := range *h.peers.Load() {
			if pe != nil && tick%4 == 0 {
				h.send(types.ProcessID(p))
			}
		}
		h.check()
	}
}

// check folds the heard marks into lastSeen — at the check after a frame,
// never before it — and suspects a peer silent for the whole timeout
// since: never sooner than the timeout after its last sign of life.
// Holding reportMu across decide-and-report keeps the callback sequence
// identical to the transition sequence (see the field comment).
func (h *Heartbeat) check() {
	h.reportMu.Lock()
	defer h.reportMu.Unlock()
	now := time.Now()
	for p, pe := range *h.peers.Load() {
		if pe == nil {
			continue
		}
		if pe.heard.Swap(false) {
			pe.lastSeen = now
		}
		if silent := now.Sub(pe.lastSeen) >= h.timeout; pe.suspected.Swap(silent) != silent && h.onChange != nil {
			h.onChange(types.ProcessID(p), silent)
		}
	}
}

// Heard records a sign of life from p (a heartbeat or any message). The
// common case — a monitored peer that is not suspected — sets the peer's
// heard mark and takes no lock and reads no clock: the runtime calls
// Heard on every frame, and the next tick folds the mark into lastSeen.
// Only an actual unsuspect transition takes the slow, serialized path.
// A mark the tick folds before suspecting the peer is never lost: it
// makes the peer not silent; one set after it is folded at the next tick,
// which then reports the unsuspect if this call did not.
func (h *Heartbeat) Heard(p types.ProcessID) {
	table := *h.peers.Load()
	if uint(p) >= uint(len(table)) || table[p] == nil {
		return // self, or not a member: a removed peer's late frames must not resurrect its state
	}
	pe := table[p]
	pe.heard.Store(true)
	if !pe.suspected.Load() {
		return
	}
	h.reportMu.Lock()
	defer h.reportMu.Unlock()
	if t := *h.peers.Load(); int(p) < len(t) && t[p] == pe && pe.suspected.Swap(false) {
		pe.lastSeen = time.Now()
		if h.onChange != nil {
			h.onChange(p, false)
		}
	}
}

// Close stops the detector.
func (h *Heartbeat) Close() {
	h.stop.Do(func() {
		close(h.done)
		h.wg.Wait()
	})
}
