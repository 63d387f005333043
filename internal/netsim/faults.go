package netsim

import (
	"time"

	"modab/internal/types"
)

// LinkFault degrades one directed link over a virtual-time window. All
// probabilities are per transmission attempt and drawn from the cluster's
// seeded RNG, so the same seed and schedule reproduce the same fault
// pattern bit for bit.
//
// Faults degrade the link but keep the model's quasi-reliable channel
// contract: a transmission discarded by a fault is retried by the link
// layer with bounded backoff (the role TCP plays under the real-time
// driver), so a message between two processes that stay up is eventually
// delivered once the fault window closes. What the engines observe is
// therefore added latency, duplication, bounded reordering, and —
// during full partitions — failure-detector suspicions that flap on and
// clear again after heal. Safety must survive all of it; liveness
// resumes once faults clear.
type LinkFault struct {
	// From and To bound the active window [From, To) in virtual time.
	// To == 0 means the fault stays active until Heal.
	From, To time.Duration
	// Drop is the probability a transmission attempt is discarded.
	// Drop >= 1 fully blocks the link (a partition): the failure
	// detector of the receiving process then suspects the sender after
	// the cost model's FDDetect, and unsuspects it FDDetect after the
	// window closes.
	Drop float64
	// Delay is added to every delivery's propagation time.
	Delay time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// Dup is the probability a delivered message arrives twice.
	Dup float64
	// Reorder is the probability a message is held back by an extra
	// skew uniform in (0, ReorderSkew], overtaking later traffic —
	// bounded reordering.
	Reorder float64
	// ReorderSkew bounds the reordering skew; 0 means 4x the model's
	// propagation delay.
	ReorderSkew time.Duration
}

// active reports whether the fault window covers virtual time t.
func (f LinkFault) active(t time.Duration) bool {
	return t >= f.From && (f.To == 0 || t < f.To)
}

// blocking reports whether the fault fully blocks the link while active.
func (f LinkFault) blocking() bool { return f.Drop >= 1 }

// linkKey identifies one directed link.
type linkKey struct{ from, to types.ProcessID }

// linkState is the fault bookkeeping of one directed link. It exists only
// for links that ever had a fault installed; fault-free clusters carry no
// link state, draw nothing from the RNG on the send path, and reproduce
// the pre-fault schedules bit for bit (pinned by the golden traces).
type linkState struct {
	faults []LinkFault
	// blocked tracks whether a blocking fault currently covers the link,
	// with blockedSince the transition time (partition accounting and
	// failure detection both key off it).
	blocked      bool
	blockedSince time.Duration
	// suspected records that the link's receiver currently suspects the
	// link's sender because of this link (the simulated failure detector
	// reports each transition exactly once).
	suspected bool
}

// Link-layer retransmission: a transmission attempt discarded by a fault
// is retried after retryBase, doubling up to retryCap — the deterministic
// stand-in for the transport-level retransmission that restores
// quasi-reliability under the real-time driver.
const (
	retryBase = 20 * time.Millisecond
	retryCap  = 320 * time.Millisecond
)

// link returns (creating if needed) the fault state of a directed link.
// Creation order is recorded so fault-topology sweeps (Heal) iterate links
// deterministically — map iteration would scramble event sequence numbers
// and with them the reproducibility contract.
func (c *Cluster) link(k linkKey) *linkState {
	if c.linkFaults == nil {
		c.linkFaults = make(map[linkKey]*linkState)
	}
	st := c.linkFaults[k]
	if st == nil {
		st = &linkState{}
		c.linkFaults[k] = st
		c.linkOrder = append(c.linkOrder, k)
	}
	return st
}

// SetLinkFault installs a fault on the directed link from -> to. Faults
// may overlap in time; a transmission consults every active window (any
// blocking or successful drop roll discards it; delays accumulate).
// Self-links and out-of-range processes are ignored.
func (c *Cluster) SetLinkFault(from, to types.ProcessID, f LinkFault) {
	if from == to || from < 0 || to < 0 || int(from) >= c.opts.N || int(to) >= c.opts.N {
		return
	}
	if f.ReorderSkew <= 0 {
		f.ReorderSkew = 4 * c.model.PropDelay
	}
	k := linkKey{from: from, to: to}
	st := c.link(k)
	st.faults = append(st.faults, f)
	if f.blocking() {
		// Drive the link's partition state machine at the window edges;
		// Heal may close the window earlier, which the transition handler
		// observes by recomputing coverage.
		c.At(f.From, func() { c.linkTransition(k) })
		if f.To > 0 {
			c.At(f.To, func() { c.linkTransition(k) })
		}
	}
}

// Partition symmetrically cuts both directions between a and b during
// [from, to): every transmission attempt is dropped (and retried), and the
// failure detectors on both sides suspect the unreachable peer after
// FDDetect, unsuspecting it FDDetect after the window closes. to == 0
// keeps the partition up until Heal.
func (c *Cluster) Partition(a, b types.ProcessID, from, to time.Duration) {
	c.SetLinkFault(a, b, LinkFault{From: from, To: to, Drop: 1})
	c.SetLinkFault(b, a, LinkFault{From: from, To: to, Drop: 1})
}

// PartitionOneWay cuts only the direction a -> b during [from, to): b
// stops hearing a (and eventually suspects it) while a still hears b —
// the asymmetric-connectivity case the heartbeat failure detector maps to
// one-sided suspicion.
func (c *Cluster) PartitionOneWay(a, b types.ProcessID, from, to time.Duration) {
	c.SetLinkFault(a, b, LinkFault{From: from, To: to, Drop: 1})
}

// Heal clears every link fault at virtual time at: windows still open are
// truncated to end at that instant, windows that would only start later
// are removed, and the failure detectors clear fault-driven suspicions
// FDDetect later.
func (c *Cluster) Heal(at time.Duration) {
	c.At(at, func() {
		for _, k := range c.linkOrder {
			st := c.linkFaults[k]
			kept := st.faults[:0]
			for _, f := range st.faults {
				if f.From >= c.now {
					continue // never became active
				}
				if f.To == 0 || f.To > c.now {
					f.To = c.now
				}
				kept = append(kept, f)
			}
			st.faults = kept
			c.linkTransition(k)
		}
	})
}

// linkTransition recomputes the blocked state of a link at the current
// virtual time and, on a transition, accounts partition exposure and arms
// the failure-detector check.
func (c *Cluster) linkTransition(k linkKey) {
	st := c.linkFaults[k]
	if st == nil {
		return
	}
	blocked := false
	for _, f := range st.faults {
		if f.blocking() && f.active(c.now) {
			blocked = true
			break
		}
	}
	if blocked == st.blocked {
		return
	}
	st.blocked = blocked
	if blocked {
		st.blockedSince = c.now
	} else {
		c.procs[k.from].counters.PartitionNanos.Add(int64(c.now - st.blockedSince))
	}
	c.At(c.now+c.model.FDDetect, func() { c.fdCheck(k) })
}

// fdCheck is the simulated failure detector of the link's receiver: a
// link blocked for FDDetect makes the receiver suspect the sender; a link
// open again for FDDetect clears the suspicion. Transitions are reported
// to the engine exactly once, and never to or about a crashed process
// (crash suspicion is the Crash/Restart machinery's job).
func (c *Cluster) fdCheck(k linkKey) {
	st := c.linkFaults[k]
	if st == nil {
		return
	}
	observer := c.procs[k.to]
	if observer.crashed {
		return
	}
	if st.blocked {
		if !st.suspected && c.now-st.blockedSince >= c.model.FDDetect {
			st.suspected = true
			subject := k.from
			c.exec(observer, c.now, c.model.TimerPerFire, func() {
				observer.eng.Suspect(subject, true)
			})
		}
		return
	}
	if st.suspected && !c.procs[k.from].crashed {
		st.suspected = false
		subject := k.from
		c.exec(observer, c.now, c.model.TimerPerFire, func() {
			observer.eng.Suspect(subject, false)
		})
	}
}

// transmit schedules the delivery of one message leaving the sender's NIC
// at departure time, applying any link faults. The fault-free path pushes
// the arrival event directly — bit-for-bit the pre-fault schedule.
func (c *Cluster) transmit(from, to types.ProcessID, data []byte, depart time.Duration) {
	st := c.linkFaults[linkKey{from: from, to: to}]
	if st == nil || len(st.faults) == 0 {
		if c.procs[to].crashed {
			return
		}
		c.push(&event{at: depart + c.model.PropDelay, kind: evMsg, proc: to, from: from, data: data})
		return
	}
	c.attempt(from, to, data, depart, 0)
}

// attempt makes one fault-aware delivery attempt at virtual time at,
// scheduling a retry with bounded backoff when a fault discards it.
func (c *Cluster) attempt(from, to types.ProcessID, data []byte, at time.Duration, try int) {
	if c.procs[to].crashed {
		return // crash-stop: messages to a crashed process vanish
	}
	snd := &c.procs[from].counters
	extra := time.Duration(0)
	dup := false
	st := c.linkFaults[linkKey{from: from, to: to}]
	if st != nil {
		for _, f := range st.faults {
			if !f.active(at) {
				continue
			}
			if f.blocking() || (f.Drop > 0 && c.rng.Float64() < f.Drop) {
				snd.DroppedByFault.Add(1)
				backoff := retryBase << try
				if backoff > retryCap || backoff <= 0 {
					backoff = retryCap
				}
				retryAt := at + backoff
				if try < 62 {
					try++
				}
				attempt := try
				c.push(&event{at: retryAt, kind: evCall, proc: types.Nobody, fn: func() {
					c.attempt(from, to, data, retryAt, attempt)
				}})
				return
			}
			extra += f.Delay
			if f.Jitter > 0 {
				extra += time.Duration(c.rng.Int63n(int64(f.Jitter)))
			}
			if f.Reorder > 0 && c.rng.Float64() < f.Reorder {
				extra += 1 + time.Duration(c.rng.Int63n(int64(f.ReorderSkew)))
				snd.ReorderedByFault.Add(1)
			}
			if f.Dup > 0 && c.rng.Float64() < f.Dup {
				dup = true
			}
		}
	}
	arrive := at + c.model.PropDelay + extra
	c.push(&event{at: arrive, kind: evMsg, proc: to, from: from, data: data})
	if dup {
		snd.DupedByFault.Add(1)
		c.push(&event{at: arrive + c.model.PropDelay, kind: evMsg, proc: to, from: from, data: data})
	}
}
