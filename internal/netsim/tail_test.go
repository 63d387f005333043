package netsim

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/rsm"
	"modab/internal/types"
)

// tailRun is what one stack produced in the delivery-tail scenario.
type tailRun struct {
	ids     []types.MsgID     // what p1 delivered, sorted
	members []types.ProcessID // the final view (instance numbering is per stack)
	kv      []byte            // the final KV state digest
}

// runTailScenario drives one stack through the single scenario that
// reaches every entry point of the shared delivery tail (internal/tail) in
// that stack's host: digest ordering (descriptor resolution, announce
// ingest), a partition that loses announces (blocked head, payload
// repair), durability with snapshots on a short cadence, a crash and a
// restart long after the peers truncated their logs (replay, regrouped
// backlog, recover requests, the snapshot branch and install, catch-up
// above it), and one Remove (config op, view change, origin retirement).
func runTailScenario(t *testing.T, stk types.Stack) tailRun {
	t.Helper()
	const (
		n       = 4
		cmds    = 220
		gap     = 10 * time.Millisecond
		crashed = types.ProcessID(2)
		removed = types.ProcessID(3)
	)
	cfg := engine.DefaultConfig(n)
	cfg.DigestOrdering = true
	cfg.DecisionHorizon = 16 // old instances leave memory too: only a snapshot can serve them
	seqs := make(map[types.ProcessID][]types.MsgID)
	c, err := NewCluster(Options{
		N:             n,
		Stack:         stk,
		Engine:        cfg,
		Seed:          21,
		Durable:       true,
		StateMachine:  func() rsm.StateMachine { return rsm.NewKV() },
		SnapshotEvery: 4,
		OnDeliver: func(p types.ProcessID, d engine.Delivery, _ time.Duration) {
			seqs[p] = append(seqs[p], d.Msg.ID)
		},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	const (
		healAt    = 400 * time.Millisecond // several resend periods: repair must fetch
		crashAt   = 501 * time.Millisecond // 1ms after p3's last submission: an unordered own backlog
		restartAt = 1300 * time.Millisecond
		removeAt  = 1900 * time.Millisecond
	)
	// The same seeded submissions under both stacks: unique keys, so the
	// final map does not depend on how a stack interleaves them; nobody
	// submits while down or once about to be removed.
	var admitted []types.MsgID
	for i := 0; i < cmds; i++ {
		at := time.Duration(i) * gap
		p := types.ProcessID(i % n)
		if p == crashed && at >= crashAt && at < restartAt+200*time.Millisecond {
			p = 0
		}
		if p == removed && at >= removeAt-200*time.Millisecond {
			p = 1
		}
		cmd := rsm.EncodePut([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
		var submit func(at time.Duration)
		submit = func(at time.Duration) {
			c.Abcast(p, at, cmd, func(id types.MsgID, _ time.Duration, err error) {
				switch err {
				case nil:
					admitted = append(admitted, id)
				case types.ErrFlowControl: // window full: the client retries
					submit(c.Now() + gap/2)
				default:
					t.Errorf("submission %d at p%d: %v", i, p+1, err)
				}
			})
		}
		submit(at)
	}
	c.Partition(1, removed, 100*time.Millisecond, healAt)
	c.Crash(crashed, crashAt)
	c.Restart(crashed, restartAt)
	c.Remove(0, removed, removeAt)
	c.Run(3 * time.Second)
	c.RunIdle(30 * time.Second)
	for _, err := range c.Errs() {
		t.Errorf("engine error: %v", err)
	}

	// Every submission delivered exactly once at the reference process.
	ref := seqs[0]
	want := append([]types.MsgID(nil), admitted...)
	got := append([]types.MsgID(nil), ref...)
	for _, s := range [][]types.MsgID{want, got} {
		sort.Slice(s, func(i, j int) bool { return s[i].Compare(s[j]) < 0 })
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("p1 delivered %d messages, %d were admitted (or the sets differ)", len(got), len(want))
	}
	// Same delivered sequence everywhere: whole at the member that never
	// left, minus the one run the snapshot folded in at the restarted
	// process, and a prefix at the removed one (nobody sends to it past
	// its boundary).
	if !reflect.DeepEqual(seqs[1], ref) {
		t.Errorf("p2 delivered a different sequence than p1 (%d vs %d messages)", len(seqs[1]), len(ref))
	}
	rec := seqs[crashed]
	pre := 0
	for pre < len(rec) && rec[pre] == ref[pre] {
		pre++
	}
	suffix := rec[pre:]
	if len(suffix) == 0 || len(rec) >= len(ref) || !reflect.DeepEqual(suffix, ref[len(ref)-len(suffix):]) {
		t.Errorf("restarted p3 delivered %d of %d messages, not a prefix plus a suffix of p1's sequence", len(rec), len(ref))
	}
	if gone := seqs[removed]; len(gone) == 0 || len(gone) >= len(ref) || !reflect.DeepEqual(gone, ref[:len(gone)]) {
		t.Errorf("removed p4 delivered %d messages, not a proper prefix of p1's %d", len(gone), len(ref))
	}
	// Same final view, same applied state.
	survivors := []types.ProcessID{0, 1, crashed}
	assertViewAgreement(t, c, survivors)
	view := c.View(0)
	if view.Epoch != 1 || !reflect.DeepEqual(view.Members, survivors) {
		t.Errorf("final view %+v, want epoch 1 over %v", view, survivors)
	}
	kv := c.Applier(0).StateDigest()
	for _, p := range survivors[1:] {
		if !bytes.Equal(c.Applier(p).StateDigest(), kv) {
			t.Errorf("p%d ends with a different KV state than p1", p+1)
		}
	}
	// The scenario did take the paths it exists for.
	r := c.Counters(crashed)
	if r.Recoveries != 1 || r.SnapshotInstalls == 0 || r.RecoveryFetchedMsgs == 0 {
		t.Errorf("restarted p3: recoveries %d, snapshot installs %d, fetched %d — snapshot branch plus catch-up expected",
			r.Recoveries, r.SnapshotInstalls, r.RecoveryFetchedMsgs)
	}
	var fetches, blockedNanos int64
	for p := 0; p < n; p++ {
		s := c.Counters(types.ProcessID(p))
		fetches += s.PayloadFetches
		blockedNanos += s.PayloadFetchNanos
		if p != int(removed) && s.ConfigChanges != 1 {
			t.Errorf("p%d applied %d config changes, want 1", p+1, s.ConfigChanges)
		}
	}
	// The partition loses announces: decided heads block on them. The
	// modular stack repairs by payload fetch; in the monolithic one the
	// full-decision re-serve usually wins the race against the payload
	// timer (its fetch path is pinned by TestPayloadRepairThroughTail).
	if blockedNanos == 0 || (stk == types.Modular && fetches == 0) {
		t.Errorf("blocked %v on missing payloads, %d repair fetches", time.Duration(blockedNanos), fetches)
	}
	t.Logf("%s: %d delivered, heads blocked %v, %d payload fetches, p3 installed %d snapshot(s) and fetched %d messages",
		stk, len(ref), time.Duration(blockedNanos), fetches, r.SnapshotInstalls, r.RecoveryFetchedMsgs)
	return tailRun{ids: got, members: view.Members, kv: kv}
}

// TestDeliveryTailBothStacks runs the scenario under both stacks: each
// must be internally consistent, and since what they share is the tail,
// they must agree on everything that does not depend on how ordering is
// composed — the delivered set, the final view, the applied state.
func TestDeliveryTailBothStacks(t *testing.T) {
	runs := make(map[types.Stack]tailRun)
	for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
		t.Run(stk.String(), func(t *testing.T) { runs[stk] = runTailScenario(t, stk) })
	}
	mod, mono := runs[types.Modular], runs[types.Monolithic]
	if !reflect.DeepEqual(mod.ids, mono.ids) {
		t.Errorf("stacks delivered different message sets (%d vs %d)", len(mod.ids), len(mono.ids))
	}
	if !reflect.DeepEqual(mod.members, mono.members) {
		t.Errorf("stacks ended in different views: %v vs %v", mod.members, mono.members)
	}
	if !bytes.Equal(mod.kv, mono.kv) {
		t.Errorf("stacks converged to different KV states")
	}
}
