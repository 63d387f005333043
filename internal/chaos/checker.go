package chaos

import (
	"bytes"
	"fmt"
	"maps"

	"modab/internal/member"
	"modab/internal/types"
)

// suffixCap bounds how much of a divergent log suffix a violation report
// prints.
const suffixCap = 10

// checkStack verifies the atomic broadcast properties on one stack's run.
// Processes the schedule crashes and never restarts are the faulty ones;
// everyone else — restarted processes included — must behave like a
// correct process.
func checkStack(sr *StackResult, sch Schedule, cfg StackConfig) []Violation {
	var out []Violation
	add := func(property, format string, args ...any) {
		out = append(out, Violation{Stack: sr.Stack, Property: property, Detail: fmt.Sprintf(format, args...)})
	}
	for _, err := range sr.Errs {
		add("engine-health", "engine error: %v", err)
	}

	down := sch.CrashedForever()
	n := len(sr.Logs)

	// Reference order: the longest correct log (every correct process must
	// match it exactly; crashed processes must be a prefix of it).
	ref := refProcess(sr, down)
	if ref == -1 {
		add("validity", "schedule leaves no correct process")
		return out
	}
	refLog := sr.Logs[ref]

	// Uniform agreement + uniform total order: correct processes deliver
	// identical sequences; crashed processes deliver a prefix. A process
	// that recovered through a snapshot install legitimately skips the
	// installed region (applied wholesale, never delivered), so its check
	// relaxes to an order-preserving subsequence of the reference — the
	// applied-state equivalence check below still holds it to the same
	// final state.
	for p := 0; p < n; p++ {
		if p == ref {
			continue
		}
		got := sr.Logs[p]
		crashed := down[types.ProcessID(p)]
		if len(sr.SnapshotInstalls) > 0 && sr.SnapshotInstalls[p] > 0 {
			if i := firstOrderBreak(refLog, got); i >= 0 {
				add("uniform-total-order", "snapshot-installed %s is not an order-preserving subsequence of %s (break at its index %d):\n    %s suffix: %v",
					types.ProcessID(p), types.ProcessID(ref), i, types.ProcessID(p), suffix(got, i))
			}
			continue
		}
		if i := firstDivergence(refLog, got); i >= 0 {
			add("uniform-total-order", "%s and %s diverge at index %d:\n    %s suffix: %v\n    %s suffix: %v",
				types.ProcessID(ref), types.ProcessID(p), i,
				types.ProcessID(ref), suffix(refLog, i), types.ProcessID(p), suffix(got, i))
			continue
		}
		if !crashed && len(got) != len(refLog) {
			add("uniform-agreement", "correct %s delivered %d messages, correct %s delivered %d:\n    %s suffix: %v",
				types.ProcessID(p), len(got), types.ProcessID(ref), len(refLog),
				types.ProcessID(ref), suffix(refLog, len(got)))
		}
	}

	// Config agreement (schedules with membership ops): correct processes
	// must agree on every epoch's activation instance and member set —
	// the observable witness that no decided instance straddled two
	// configurations (an op decided at k activates at exactly k+W
	// everywhere, joiners included; a joiner's history legitimately
	// starts at its admitting view, hence the shared-epoch comparison) —
	// and end in the same epoch: a history may start late, but it may not
	// end early.
	if len(sr.Views) > 0 {
		refViews := epochMap(sr.Views[ref])
		refLast := sr.Views[ref][len(sr.Views[ref])-1].Epoch
		for p := 0; p < len(sr.Views); p++ {
			if p == ref || down[types.ProcessID(p)] {
				continue
			}
			if last := sr.Views[p][len(sr.Views[p])-1].Epoch; last != refLast {
				add("config-agreement", "%s ends in epoch %d, %s in epoch %d",
					types.ProcessID(p), last, types.ProcessID(ref), refLast)
			}
			for _, v := range sr.Views[p] {
				rv, ok := refViews[v.Epoch]
				if !ok {
					continue
				}
				if v.Activation != rv.Activation {
					add("config-agreement", "%s activates epoch %d at instance %d, %s at %d",
						types.ProcessID(p), v.Epoch, v.Activation, types.ProcessID(ref), rv.Activation)
					continue
				}
				if !sameMembers(v.Members, rv.Members) {
					add("config-agreement", "%s and %s disagree on epoch %d members: %v vs %v",
						types.ProcessID(p), types.ProcessID(ref), v.Epoch, v.Members, rv.Members)
				}
			}
		}
	}

	// Applied-state equivalence (KV runs): every process that is correct
	// at the end — restarted and snapshot-installed ones included — must
	// hold byte-identical state machine state.
	if len(sr.Digests) > 0 {
		for p := 0; p < n; p++ {
			if down[types.ProcessID(p)] || p == ref {
				continue
			}
			if !bytes.Equal(sr.Digests[p], sr.Digests[ref]) {
				add("applied-state-equivalence", "%s and %s hold different final KV state (%d vs %d canonical bytes)",
					types.ProcessID(p), types.ProcessID(ref), len(sr.Digests[p]), len(sr.Digests[ref]))
			}
		}
	}

	// Uniform integrity: no process delivers twice, nothing undelivered is
	// invented.
	valid := make(map[types.MsgID]bool, len(sr.Submissions))
	for _, s := range sr.Submissions {
		if s.ID != (types.MsgID{}) {
			valid[s.ID] = true
		}
	}
	for p := 0; p < n; p++ {
		seen := make(map[types.MsgID]bool, len(sr.Logs[p]))
		for i, id := range sr.Logs[p] {
			if seen[id] {
				add("uniform-integrity", "%s delivered %s twice (second at index %d)", types.ProcessID(p), id, i)
			}
			seen[id] = true
			if !valid[id] {
				add("uniform-integrity", "%s delivered never-abcast %s (index %d)", types.ProcessID(p), id, i)
			}
		}
	}

	// Validity + liveness after heal: every admission at a correct process
	// is in the reference order, and the cluster quiesced inside the
	// settle budget once faults cleared.
	delivered := make(map[types.MsgID]bool, len(refLog))
	for _, id := range refLog {
		delivered[id] = true
	}
	missing := 0
	for _, s := range sr.Submissions {
		if s.ID == (types.MsgID{}) || down[s.By] || delivered[s.ID] {
			continue
		}
		missing++
		if missing <= 3 {
			add("validity", "%s admitted at correct %s (t=%v) never delivered", s.ID, s.By, s.At)
		}
	}
	if missing > 3 {
		add("validity", "... and %d more undelivered admissions", missing-3)
	}
	if !sr.Quiesced {
		add("liveness-after-heal", "cluster failed to quiesce within %v of virtual settle time after the horizon", cfg.Settle)
	}
	return out
}

// checkCrossStack compares the two stacks' final applied state (KV runs
// only). The stacks may legitimately admit different command sets (flow
// control and crash timing are stack-dependent), so the digests are only
// required to match when the reference logs apply the same submissions —
// which they do in the sweep families, making this the cross-stack half
// of the applied-state equivalence property. Submissions, not MsgIDs, are
// the common key: each stack numbers its own messages, and a sender that
// spends a sequence number on one stack but not the other shifts every
// later ID of that sender.
func checkCrossStack(stacks []StackResult, sch Schedule) []Violation {
	if len(stacks) != 2 || len(stacks[0].Digests) == 0 || len(stacks[1].Digests) == 0 {
		return nil
	}
	down := sch.CrashedForever()
	refs := make([]int, 2)
	sets := make([]map[int]bool, 2)
	for i := range stacks {
		ref, set, ok := appliedSubmissions(&stacks[i], down)
		if !ok {
			return nil
		}
		refs[i], sets[i] = ref, set
	}
	if !maps.Equal(sets[0], sets[1]) {
		return nil
	}
	if !bytes.Equal(stacks[0].Digests[refs[0]], stacks[1].Digests[refs[1]]) {
		return []Violation{{
			Stack:    stacks[1].Stack,
			Property: "applied-state-equivalence",
			Detail: fmt.Sprintf("stacks applied the same %d submissions but converged to different KV state (%s %d vs %s %d canonical bytes)",
				len(sets[0]), stacks[0].Stack, len(stacks[0].Digests[refs[0]]), stacks[1].Stack, len(stacks[1].Digests[refs[1]])),
		}}
	}
	return nil
}

// refProcess returns the reference process of a stack's run: the
// longest log among processes not crashed forever (-1 when none is).
func refProcess(sr *StackResult, down map[types.ProcessID]bool) int {
	ref := -1
	for p := range sr.Logs {
		if !down[types.ProcessID(p)] && (ref == -1 || len(sr.Logs[p]) > len(sr.Logs[ref])) {
			ref = p
		}
	}
	return ref
}

// appliedSubmissions returns a stack's reference process and the indexes
// of the submissions its log delivered. ok is false when no process is
// correct or the log holds an ID no submission was assigned.
func appliedSubmissions(sr *StackResult, down map[types.ProcessID]bool) (ref int, set map[int]bool, ok bool) {
	if ref = refProcess(sr, down); ref == -1 {
		return -1, nil, false
	}
	submission := make(map[types.MsgID]int, len(sr.Submissions))
	for idx, s := range sr.Submissions {
		if s.ID != (types.MsgID{}) {
			submission[s.ID] = idx
		}
	}
	set = make(map[int]bool, len(sr.Logs[ref]))
	for _, id := range sr.Logs[ref] {
		idx, found := submission[id]
		if !found {
			return ref, nil, false // uniform integrity reports the invented message
		}
		set[idx] = true
	}
	return ref, set, true
}

// epochMap indexes a decided view sequence by epoch.
func epochMap(views []member.View) map[uint64]member.View {
	m := make(map[uint64]member.View, len(views))
	for _, v := range views {
		m[v.Epoch] = v
	}
	return m
}

// sameMembers reports whether two sorted member sets are identical.
func sameMembers(a, b []types.ProcessID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// firstOrderBreak returns the first index of got that breaks the order of
// ref (an entry missing from ref, or one that steps backwards), or -1
// when got is an order-preserving subsequence of ref.
func firstOrderBreak(ref, got []types.MsgID) int {
	idx := make(map[types.MsgID]int, len(ref))
	for i, id := range ref {
		idx[id] = i
	}
	next := 0
	for i, id := range got {
		ri, ok := idx[id]
		if !ok || ri < next {
			return i
		}
		next = ri + 1
	}
	return -1
}

// firstDivergence returns the first index where the two logs disagree on
// a common position, or -1 when one is a prefix of the other.
func firstDivergence(a, b []types.MsgID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// suffix returns up to suffixCap entries of log starting at i.
func suffix(log []types.MsgID, i int) []types.MsgID {
	if i >= len(log) {
		return nil
	}
	end := i + suffixCap
	if end > len(log) {
		end = len(log)
	}
	return log[i:end]
}
