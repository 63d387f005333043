package monolithic

import (
	"fmt"
	"testing"

	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/types"
	"modab/internal/wire"
)

// TestRemoveRetiresAnnouncedPayloads is the payload-leak regression
// test: under digest ordering, a batch announced by an origin that is
// then removed — before its descriptor was ever ordered — used to stay
// resident in every receiver's payload store forever (nothing would
// ever decide the descriptor, so MarkDelivered/PruneBelow never touched
// it). The remove boundary must retire it.
func TestRemoveRetiresAnnouncedPayloads(t *testing.T) {
	cfg := engine.DefaultConfig(3)
	cfg.IdleKick = 0
	cfg.DigestOrdering = true
	r := newRig(t, 3, cfg)

	// p3 announces a batch that reaches only p2 (a non-coordinator, so
	// the descriptor is pooled but never proposed), then p3 is cut off.
	orphan, err := r.engs[2].Abcast([]byte("orphan"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.envs[2].SendsTo(1) {
		if err := r.engs[1].HandleMessage(2, s.Data); err != nil {
			t.Fatal(err)
		}
	}
	r.envs[2].Sends = nil
	if !r.engs[1].t.Store.Has(wire.Descriptor{Origin: 2, FirstSeq: orphan.Seq, Count: 1}) {
		t.Fatal("p2 should hold the announced batch")
	}
	r.net.Drop = func(from, to types.ProcessID, _ []byte) bool {
		return from == 2 || to == 2
	}

	// Remove the origin; fillers push the decided watermark past the
	// activation boundary.
	if _, err := r.engs[0].SubmitConfig(member.Op{Kind: member.OpRemove, Target: 2}); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	activated := func() bool {
		cur := r.engs[1].t.Hist.Current()
		return len(cur.Members) == 2 && r.engs[1].decidedK() >= cur.Activation
	}
	for i := 0; !activated(); i++ {
		if i == 8 {
			t.Fatalf("remove never activated at p2: view %v, decidedK %d",
				r.engs[1].t.Hist.Current(), r.engs[1].decidedK())
		}
		if _, err := r.engs[0].Abcast([]byte(fmt.Sprintf("filler-%d", i))); err != nil {
			t.Fatal(err)
		}
		r.run(t)
	}

	// The boundary must have swept the removed origin's state (delivered
	// fillers legitimately stay resident until horizon pruning).
	if r.engs[1].t.Store.Has(wire.Descriptor{Origin: 2, FirstSeq: orphan.Seq, Count: 1}) {
		t.Fatal("payload leak: p2 store still holds the removed origin's batch")
	}
	if w := r.engs[1].t.Pool.Window(2); len(w) > 0 {
		t.Fatalf("removed origin's descriptor %v still pooled", w[0].Msg.ID)
	}
	if got := r.envs[1].Cnt.PayloadsRetired.Load(); got < 1 {
		t.Fatalf("PayloadsRetired = %d, want >= 1", got)
	}
	for _, d := range r.envs[1].Deliveries {
		if d.Msg.ID.Sender == 2 {
			t.Fatalf("orphan descriptor was delivered: %v", d.Msg.ID)
		}
	}

	// Survivors agree, and both sit in the shrunken view.
	for p := 0; p < 2; p++ {
		v := r.engs[p].t.Hist.Current()
		if len(v.Members) != 2 || v.Contains(2) {
			t.Fatalf("p%d view after remove: %v", p+1, v)
		}
	}
}
