package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"modab"
)

// crashVictim is the process the crash workload stops: process 0, the
// coordinator of every instance's first round.
const crashVictim = 0

// The crash scenario's timeline, as fractions of the open-loop phase:
// steady → Crash → degraded → Restart → recovery → steady.
const (
	crashAtFrac   = 0.3
	restartAtFrac = 0.6
	// drainLead is how long before the crash the generator stops routing new
	// ops to the victim. Ops in flight at a crashing origin could never be
	// "adelivered at their origin"; draining first keeps the workload free of
	// failed ops while the victim is still coordinating everyone else's.
	drainLead = 20 * time.Millisecond
)

// crashResult is what the fault injector measured.
type crashResult struct {
	recoveryNs int64 // Restart call → victim's AppliedIndex reaches the survivors'
	detectNs   int64 // Crash return → first round change at a survivor; 0 = none seen
	// steadyRounds counts round changes before the crash (false suspicions).
	steadyRounds int64
	snapshots    int64 // SnapshotsTaken, all processes, before the crash
	victim       modab.Snapshot
	err          error
}

// runCrash is runOpen with the fault injector alongside. It fails when the
// injection did, or when the recovery did not take the path the workload
// exists to measure.
func runCrash(ss *session, dur time.Duration) (openResult, crashResult, error) {
	s := ss.s
	var down atomic.Bool
	var cr crashResult
	done := make(chan struct{})
	inject := func(op *openPhase) {
		defer close(done)
		begin := time.Now()
		until := func(frac float64, lead time.Duration) {
			time.Sleep(time.Until(begin.Add(time.Duration(frac*float64(dur)) - lead)))
		}
		survivors := make([]int, 0, s.n-1)
		for p := 0; p < s.n; p++ {
			if p != crashVictim {
				survivors = append(survivors, p)
			}
		}
		rounds := func() (r int64) {
			for _, p := range survivors {
				r += s.counters(p).Rounds
			}
			return r
		}

		until(crashAtFrac, drainLead)
		down.Store(true)
		for wait := time.Now().Add(time.Second); op.pending[crashVictim].Load() > 0 && time.Now().Before(wait); {
			time.Sleep(100 * time.Microsecond)
		}
		if k := op.pending[crashVictim].Load(); k > 0 {
			cr.err = fmt.Errorf("victim still had %d ops in flight 1 s after draining began", k)
			return
		}
		cr.steadyRounds = rounds() + s.counters(crashVictim).Rounds
		cr.snapshots = s.total().SnapshotsTaken
		op.lastSurvivor.Store(ss.col.now())
		op.gapWatch.Store(true)
		until(crashAtFrac, 0)
		if err := s.cluster(crashVictim).Crash(crashVictim); err != nil {
			cr.err = fmt.Errorf("crash: %w", err)
			return
		}
		crashed := time.Now()
		base := rounds()
		restartAt := begin.Add(time.Duration(restartAtFrac * float64(dur)))
		for time.Now().Before(restartAt) {
			if cr.detectNs == 0 && rounds() > base {
				cr.detectNs = int64(time.Since(crashed))
			}
			time.Sleep(500 * time.Microsecond)
		}
		op.gapWatch.Store(false)
		op.survivorDelivery(ss.col.now())

		target := ss.appliedElsewhere(crashVictim)
		restart := time.Now()
		if err := s.cluster(crashVictim).Restart(crashVictim); err != nil {
			cr.err = fmt.Errorf("restart: %w", err)
			return
		}
		for deadline := restart.Add(drainLimit); ; {
			if a := s.cluster(crashVictim).Applier(crashVictim); a != nil && a.AppliedIndex() >= target {
				break
			}
			if time.Now().After(deadline) {
				cr.err = fmt.Errorf("victim did not reach instance %d within %v of its restart", target, drainLimit)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		cr.recoveryNs = int64(time.Since(restart))
		down.Store(false)
	}
	live := func(o int) bool { return o != crashVictim || !down.Load() }
	res := ss.runOpen(ss.seed, dur, live, func(op *openPhase) { go inject(op) })
	<-done
	if cr.err == nil {
		// Read at the scenario's end, not at the recovered instant: a victim
		// that had little to catch up on gets there before its event loop has
		// published the recovery counters.
		cr.victim = s.counters(crashVictim)
		cr.err = cr.pathTaken()
	}
	return res, cr, cr.err
}
