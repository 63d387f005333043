// Membership operations of the simulated cluster: config changes ride
// the total order exactly as in the real drivers — a sponsor submits the
// op through its engine, the decided view activates at the boundary
// instance, and a joiner is spawned only once some correct process has
// applied the view that admits it (it then bootstraps through the
// ordinary crash-recovery state transfer, including snapshot install
// when snapshots are enabled).
package netsim

import (
	"fmt"
	"time"

	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/types"
)

// Join admits a new process: at virtual time at, sponsor submits the
// OpAdd; when the first correct process applies the resulting view the
// joiner is spawned with that view as its initial config and catches up
// through state transfer. Joiner IDs must be dense — the next unused ID
// — and joins must be spaced far enough apart that each joiner spawns
// before the next OpAdd decides (the chaos schedules and benchmarks
// sequence them through the delivery stream).
func (c *Cluster) Join(sponsor, id types.ProcessID, at time.Duration) {
	c.At(at, func() {
		if int(id) < len(c.procs) {
			c.errs = append(c.errs, fmt.Errorf("sim t=%v: join %s: ID already spawned", c.now, id))
			return
		}
		if !c.opts.Durable {
			// Members without durable stores cannot serve the decided
			// prefix, so the joiner's state transfer would never finish.
			c.errs = append(c.errs, fmt.Errorf("sim t=%v: join %s: requires Options.Durable", c.now, id))
			return
		}
		c.pendingJoins[id] = true
		c.submitConfig(sponsor, member.Op{Kind: member.OpAdd, Target: id})
	})
}

// Remove retires a member: at virtual time at, sponsor submits the
// OpRemove. The removed process keeps running until the caller crashes
// it (decommissioning is the driver's business); from the activation
// boundary on, the survivors neither send to it nor accept its state.
func (c *Cluster) Remove(sponsor, target types.ProcessID, at time.Duration) {
	c.At(at, func() {
		c.submitConfig(sponsor, member.Op{Kind: member.OpRemove, Target: target})
	})
}

// submitConfig drives one config op through the sponsor's engine. A
// flow-control rejection retries after a delivery-scale delay — the op
// is an ordinary abcast competing for window slots, and membership
// sweeps run under load.
func (c *Cluster) submitConfig(sponsor types.ProcessID, op member.Op) {
	pr := c.procs[sponsor]
	if pr == nil || pr.crashed {
		c.errs = append(c.errs, fmt.Errorf("sim t=%v: submit %v: sponsor %s down", c.now, op, sponsor))
		return
	}
	sub, ok := pr.eng.(engine.ConfigSubmitter)
	if !ok {
		c.errs = append(c.errs, fmt.Errorf("sim t=%v: %s engine cannot submit config ops", c.now, sponsor))
		return
	}
	var err error
	c.exec(pr, c.now, c.model.AbcastPerMsg, func() {
		_, err = sub.SubmitConfig(op)
	})
	if err == types.ErrFlowControl {
		c.At(c.now+time.Millisecond, func() { c.submitConfig(sponsor, op) })
		return
	}
	if err != nil {
		c.errs = append(c.errs, fmt.Errorf("sim t=%v %s: submit %v: %w", c.now, sponsor, op, err))
	}
}

// View returns process p's current membership view.
func (c *Cluster) View(p types.ProcessID) member.View {
	return c.procs[p].eng.(engine.ConfigSubmitter).CurrentView()
}

// ViewHistory returns process p's full decided view sequence (checker
// support: correct processes must agree on the epoch → activation map).
func (c *Cluster) ViewHistory(p types.ProcessID) []member.View {
	return c.procs[p].eng.(interface{ Views() []member.View }).Views()
}

// Procs returns the number of processes ever spawned (boot group plus
// joiners; removed and crashed processes keep their slots).
func (c *Cluster) Procs() int { return len(c.procs) }

// Live reports whether process p is spawned and not crashed.
func (c *Cluster) Live(p types.ProcessID) bool {
	if int(p) < 0 || int(p) >= len(c.procs) {
		return false
	}
	pr := c.procs[p]
	return pr != nil && !pr.crashed
}

// onViewChange observes every applied view at every process (the
// engines' OnConfig hook): the first view naming a pending joiner
// spawns it.
func (c *Cluster) onViewChange(_ types.ProcessID, v member.View) {
	if len(c.pendingJoins) == 0 {
		return
	}
	for _, m := range v.Members {
		if !c.pendingJoins[m] {
			continue
		}
		delete(c.pendingJoins, m)
		id := m
		view := v
		view.Members = append([]types.ProcessID(nil), v.Members...)
		c.At(c.now, func() { c.spawnJoiner(id, view) })
	}
}

// spawnJoiner brings a freshly admitted process online: a new proc slot
// (with durable and snapshot stores when the cluster has them), an
// engine seeded with the admitting view, and the restart-style empty
// recovered state that makes it announce itself and pull the decided
// prefix — or a snapshot — before participating.
func (c *Cluster) spawnJoiner(id types.ProcessID, v member.View) {
	if int(id) != len(c.procs) {
		c.errs = append(c.errs, fmt.Errorf("sim t=%v: joiner %s out of order (%d procs spawned)", c.now, id, len(c.procs)))
		return
	}
	p := c.newProc(id) // Join refuses a cluster without durable stores
	c.procs = append(c.procs, p)
	// The first incarnation boots like every later one; its fresh store
	// recovers nothing, so Boot gives it the empty restart-style state.
	if err := c.boot(p, &v); err != nil {
		c.errs = append(c.errs, fmt.Errorf("sim t=%v %s: boot: %w", c.now, id, err))
		p.crashed = true
		return
	}
	c.exec(p, c.now, 0, p.eng.Start)
	c.detect(p, false)
}
