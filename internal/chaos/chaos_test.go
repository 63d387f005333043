package chaos

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/rsm"
	"modab/internal/types"
)

// TestPartitionRunHoldsProperties is the smoke test of the harness: a
// symmetric partition of the round-1 coordinator, healed mid-run, must
// leave every property intact in both stacks.
func TestPartitionRunHoldsProperties(t *testing.T) {
	sch := Schedule{
		{Kind: OpPartition, A: 0, B: 1, From: 300 * time.Millisecond, To: 800 * time.Millisecond},
		{Kind: OpPartition, A: 0, B: 2, From: 300 * time.Millisecond, To: 800 * time.Millisecond},
	}
	res, err := Run(7, sch, StackConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("properties violated:\n%s", res.Report())
	}
	for _, sr := range res.Stacks {
		if sr.Stats.Total.DroppedByFault == 0 {
			t.Errorf("%s: partition dropped nothing", sr.Stack)
		}
		if sr.Stats.Total.PartitionNanos == 0 {
			t.Errorf("%s: partition time not accounted", sr.Stack)
		}
		if sr.Stats.Total.ADeliver == 0 {
			t.Errorf("%s: no deliveries", sr.Stack)
		}
	}
}

// TestRunDeterministic: the same seed, schedule and config must reproduce
// the exact same delivery logs and counters.
func TestRunDeterministic(t *testing.T) {
	sch := Schedule{
		{Kind: OpLinkFault, A: 0, B: 1, From: 200 * time.Millisecond, To: 900 * time.Millisecond,
			Fault: lossy()},
		{Kind: OpPartition, A: 1, B: 2, From: 400 * time.Millisecond, To: 700 * time.Millisecond},
	}
	a, err := Run(11, sch, StackConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(11, sch, StackConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fmt.Sprint(a.Stacks) != fmt.Sprint(b.Stacks) {
		t.Fatal("same seed produced different chaos runs")
	}
	if !a.Ok() {
		t.Fatalf("properties violated:\n%s", a.Report())
	}
}

// TestInjectedAgreementBugCaught corrupts one process's delivery log
// through the test-only hook and requires the checker to flag it and the
// minimizer to produce a (possibly empty) reproducing schedule — the
// acceptance gate that the checker is actually wired to the logs.
func TestInjectedAgreementBugCaught(t *testing.T) {
	defer func() { testMutateLog = nil }()
	testMutateLog = func(stk types.Stack, p types.ProcessID, log []types.MsgID) []types.MsgID {
		if stk == types.Modular && p == 2 && len(log) > 4 {
			out := append([]types.MsgID(nil), log...)
			out[1], out[3] = out[3], out[1] // divergent order at p3
			return out
		}
		return log
	}
	sch := Schedule{
		{Kind: OpPartition, A: 0, B: 1, From: 300 * time.Millisecond, To: 600 * time.Millisecond},
		{Kind: OpSuspect, A: 1, B: 2, From: 100 * time.Millisecond, To: 300 * time.Millisecond},
	}
	res, err := Run(3, sch, StackConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Ok() {
		t.Fatal("checker missed the injected agreement bug")
	}
	found := false
	for _, v := range res.Violations {
		if v.Stack == types.Modular && (v.Property == "uniform-total-order" || v.Property == "uniform-agreement") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a total-order/agreement violation, got:\n%s", res.Report())
	}
	report := res.Report()
	for _, want := range []string{"seed=3", "minimized schedule", "suffix"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	// The corruption survives any schedule, so the minimizer must shrink
	// to the empty schedule — the strongest possible minimization.
	if len(res.Minimized) != 0 {
		t.Errorf("minimizer kept %d ops for a schedule-independent bug:\n%s", len(res.Minimized), res.Report())
	}
}

// TestKVRunSnapshotInstall drives the KV-loaded snapshot-install
// scenario through the harness and asserts the machinery actually
// engaged: the restarted process installed a snapshot in at least one
// stack, digests were collected for every process, and every property —
// applied-state equivalence included — held.
func TestKVRunSnapshotInstall(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.DecisionHorizon = 16
	sch := Schedule{
		{Kind: OpCrash, A: 2, From: 250 * time.Millisecond},
		{Kind: OpRestart, A: 2, From: 950 * time.Millisecond},
	}
	res, err := Run(9, sch, StackConfig{Engine: cfg, Durable: true, KV: true, SnapshotEvery: 4, Load: 400})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("properties violated:\n%s", res.Report())
	}
	installs := int64(0)
	for _, sr := range res.Stacks {
		if len(sr.Digests) != 3 {
			t.Fatalf("%s: %d digests, want 3", sr.Stack, len(sr.Digests))
		}
		for p, d := range sr.Digests {
			if len(d) == 0 {
				t.Errorf("%s: empty digest at %s", sr.Stack, types.ProcessID(p))
			}
		}
		installs += sr.SnapshotInstalls[2]
	}
	if installs == 0 {
		t.Fatal("restarted process installed no snapshot in either stack — the scenario no longer exercises snapshot state transfer")
	}
}

// TestMembershipChurnRunEngages drives one replace-under-fire schedule
// through the harness and asserts the membership machinery actually
// engaged in both stacks: the joiner spawned and delivered the full
// reference order, every process reached the final 3-member view with
// the joiner in and the victim out, view histories agreed, and the
// joiner's KV digest matches the survivors'.
func TestMembershipChurnRunEngages(t *testing.T) {
	sch := Schedule{
		{Kind: OpJoin, A: 3, B: 1, From: 250 * time.Millisecond},
		{Kind: OpLeave, A: 0, B: 1, From: 650 * time.Millisecond},
		{Kind: OpCrash, A: 0, From: 950 * time.Millisecond},
	}
	res, err := Run(13, sch, StackConfig{Durable: true, KV: true, SnapshotEvery: 1 << 20, Load: 400})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("properties violated:\n%s", res.Report())
	}
	for _, sr := range res.Stacks {
		if len(sr.Logs) != 4 {
			t.Fatalf("%s: %d logs, want 4 (joiner missing)", sr.Stack, len(sr.Logs))
		}
		if len(sr.Logs[3]) == 0 || len(sr.Logs[3]) != len(sr.Logs[1]) {
			t.Errorf("%s: joiner delivered %d of %d messages", sr.Stack, len(sr.Logs[3]), len(sr.Logs[1]))
		}
		for p := 1; p < 4; p++ {
			views := sr.Views[p]
			if len(views) == 0 {
				t.Fatalf("%s: no view history at p%d", sr.Stack, p+1)
			}
			final := views[len(views)-1]
			if len(final.Members) != 3 || !final.Contains(3) || final.Contains(0) {
				t.Errorf("%s: p%d final view %v, want {1,2,3} with the victim out", sr.Stack, p+1, final)
			}
		}
		if string(sr.Digests[3]) != string(sr.Digests[1]) {
			t.Errorf("%s: joiner KV digest differs from survivor's", sr.Stack)
		}
	}
}

// TestJoinerMissesFirstProposal: the first proposal of the view admitting
// p4 goes out before p4 runs. With one more of the four members silent,
// the instance stalls unless the proposal reaches p4 again: here p2 nacks
// it on a suspicion left over from a healed partition (membership-churn
// seeds 16, 64 and 148, minimized; the last two stalled the monolithic
// stack only), or p2 has crashed.
func TestJoinerMissesFirstProposal(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name         string
		seed         int64
		join, second Op
	}{
		{"stale-suspicion", 16, Op{Kind: OpJoin, A: 3, B: 2, From: 231 * ms},
			Op{Kind: OpPartition, A: 1, B: 0, From: 181 * ms, To: 481 * ms}},
		{"crash", 16, Op{Kind: OpJoin, A: 3, B: 2, From: 231 * ms},
			Op{Kind: OpCrash, A: 1, From: 200 * ms}},
		{"stale-suspicion-64", 64, Op{Kind: OpJoin, A: 3, B: 2, From: 324 * ms},
			Op{Kind: OpPartition, A: 1, B: 0, From: 274 * ms, To: 574 * ms}},
		{"stale-suspicion-148", 148, Op{Kind: OpJoin, A: 3, B: 2, From: 293 * ms},
			Op{Kind: OpPartition, A: 1, B: 0, From: 243 * ms, To: 543 * ms}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.seed, Schedule{tc.join, tc.second}, StackConfig{Durable: true, KV: true, SnapshotEvery: 1 << 20, Load: 400})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.Ok() {
				t.Fatalf("properties violated:\n%s", res.Report())
			}
		})
	}
}

// TestRestartRestoresViews is membership-churn seed 1, minimized, at the
// default snapshot cadence: p1 restarts after its snapshots truncated the
// op admitting p4 out of its log. It must come back in p4's view, with
// the same KV state as everyone else, on both stacks.
func TestRestartRestoresViews(t *testing.T) {
	sch := Schedule{
		{Kind: OpJoin, A: 3, B: 2, From: 231 * time.Millisecond},
		{Kind: OpCrash, A: 0, From: 331 * time.Millisecond},
		{Kind: OpRestart, A: 0, From: 681 * time.Millisecond},
	}
	res := runEndsInOneView(t, 1, sch, 1)
	for _, sr := range res.Stacks {
		if !bytes.Equal(sr.Digests[0], sr.Digests[3]) {
			t.Errorf("%s: restarted p1 and joiner p4 hold different KV state", sr.Stack)
		}
	}
}

// TestInstallRestoresViews is membership-churn seed 11: the restarted p2
// catches up by installing a peer's snapshot taken after p3's removal, an
// op p2 never saw. The install must move p2 to the current view too.
func TestInstallRestoresViews(t *testing.T) {
	sch := Schedule{
		{Kind: OpJoin, A: 3, B: 0, From: 231 * time.Millisecond},
		{Kind: OpLeave, A: 2, B: 0, From: 631 * time.Millisecond},
		{Kind: OpCrash, A: 2, From: 931 * time.Millisecond},
		{Kind: OpCrash, A: 1, From: 331 * time.Millisecond},
		{Kind: OpRestart, A: 1, From: 681 * time.Millisecond},
		{Kind: OpSuspect, A: 0, B: 1, From: 631 * time.Millisecond, To: 781 * time.Millisecond},
	}
	res := runEndsInOneView(t, 11, sch, 2)
	for _, sr := range res.Stacks {
		if sr.SnapshotInstalls[1] == 0 {
			t.Errorf("%s: p2 caught up without a snapshot install", sr.Stack)
		}
	}
}

// TestInstallRetiresRemovedOrigin is membership-churn seed 187: the
// restarted p1 installs a snapshot past p2's removal while still holding
// an unordered p2 message. The install must retire it, as the remove
// boundary does, or p1 re-diffuses it forever.
func TestInstallRetiresRemovedOrigin(t *testing.T) {
	sch := Schedule{
		{Kind: OpJoin, A: 3, B: 2, From: 262 * time.Millisecond},
		{Kind: OpLeave, A: 1, B: 2, From: 662 * time.Millisecond},
		{Kind: OpCrash, A: 1, From: 962 * time.Millisecond},
		{Kind: OpCrash, A: 0, From: 362 * time.Millisecond},
		{Kind: OpRestart, A: 0, From: 712 * time.Millisecond},
		{Kind: OpSuspect, A: 2, B: 0, From: 662 * time.Millisecond, To: 812 * time.Millisecond},
	}
	res := runEndsInOneView(t, 187, sch, 2)
	if sr := res.Stacks[0]; sr.SnapshotInstalls[0] == 0 {
		t.Errorf("%s: p1 caught up without a snapshot install", sr.Stack)
	}
}

// runEndsInOneView runs a membership schedule under KV load at the
// default snapshot cadence and requires every property plus one final
// epoch at every correct process.
func runEndsInOneView(t *testing.T, seed int64, sch Schedule, epoch uint64) *Result {
	t.Helper()
	res, err := Run(seed, sch, StackConfig{Durable: true, KV: true, Load: 400})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("properties violated:\n%s", res.Report())
	}
	down := sch.CrashedForever()
	for _, sr := range res.Stacks {
		for p, views := range sr.Views {
			if last := views[len(views)-1]; !down[types.ProcessID(p)] && last.Epoch != epoch {
				t.Errorf("%s: p%d ends in %+v, want epoch %d", sr.Stack, p+1, last, epoch)
			}
		}
	}
	return res
}

// TestScheduleEnd covers the heal/window end computation.
func TestScheduleEnd(t *testing.T) {
	open := Schedule{{Kind: OpPartition, A: 0, B: 1, From: 100 * time.Millisecond}}
	if _, ok := open.End(); ok {
		t.Error("open-ended partition without heal reported healable")
	}
	healed := append(open, Op{Kind: OpHeal, From: 500 * time.Millisecond})
	end, ok := healed.End()
	if !ok || end != 500*time.Millisecond {
		t.Errorf("End() = %v, %v; want 500ms, true", end, ok)
	}
	windowed := Schedule{
		{Kind: OpPartition, A: 0, B: 1, From: 100 * time.Millisecond, To: 400 * time.Millisecond},
		{Kind: OpCrash, A: 2, From: 200 * time.Millisecond},
		{Kind: OpRestart, A: 2, From: 900 * time.Millisecond},
	}
	end, ok = windowed.End()
	if !ok || end != 900*time.Millisecond {
		t.Errorf("End() = %v, %v; want 900ms, true", end, ok)
	}
	if down := windowed.CrashedForever(); len(down) != 0 {
		t.Errorf("CrashedForever() = %v, want none (restarted)", down)
	}
}

// TestHealClearsOpenEndedPartition: an open-ended partition terminated
// only by Heal must still satisfy liveness after heal.
func TestHealClearsOpenEndedPartition(t *testing.T) {
	sch := Schedule{
		{Kind: OpPartition, A: 0, B: 2, From: 250 * time.Millisecond},
		{Kind: OpHeal, From: 750 * time.Millisecond},
	}
	res, err := Run(5, sch, StackConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("properties violated:\n%s", res.Report())
	}
}

// TestCrossStackKeyedBySubmission pins the cross-stack applied-state
// check to submissions, not MsgIDs. With a join and a crash on seed 16
// the modular stack refuses two of p2's submissions under flow control
// that the monolithic stack admits, so every later p2 message carries an
// ID two higher on monolithic. Both reference logs then hold the same
// 355 MsgIDs for different commands, and comparing ID sets reported a
// false applied-state divergence.
func TestCrossStackKeyedBySubmission(t *testing.T) {
	sch := Schedule{
		{Kind: OpJoin, A: 3, B: 2, From: 231 * time.Millisecond},
		{Kind: OpCrash, A: 1, From: 260 * time.Millisecond},
	}
	res, err := run(16, sch, StackConfig{Durable: true, KV: true, SnapshotEvery: 1 << 20, Load: 400})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("properties violated:\n%s", res.Report())
	}
	down := sch.CrashedForever()
	renumbered := 0
	for i := range res.Stacks {
		ref, set, ok := appliedSubmissions(&res.Stacks[i], down)
		if !ok {
			t.Fatalf("%s: no submission set", res.Stacks[i].Stack)
		}
		// Neither stack diverged: each holds exactly the state of the
		// submissions it applied (runStack keys each put by its index).
		kv := rsm.NewKV()
		for idx := range set {
			kv.Apply(rsm.Entry{Cmd: rsm.EncodePut([]byte(fmt.Sprintf("chaos-%05d", idx)), make([]byte, res.Config.Size))})
			if res.Stacks[0].Submissions[idx].ID != res.Stacks[1].Submissions[idx].ID {
				renumbered++
			}
		}
		var want bytes.Buffer
		if err := kv.Snapshot(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Stacks[i].Digests[ref], want.Bytes()) {
			t.Fatalf("%s: state differs from the state of its %d applied submissions", res.Stacks[i].Stack, len(set))
		}
	}
	if renumbered == 0 {
		t.Fatalf("no applied submission carries different IDs on the two stacks; the regression no longer exercises the keying")
	}
}
