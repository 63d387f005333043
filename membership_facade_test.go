package modab_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"modab"
	"modab/internal/netsim"
)

// TestFacadeMembershipSim replays the facade's add/remove cycle on the
// simulator: admit a fourth process (it catches up on the history it
// missed), retire the first, and check every survivor's view and delivery
// count.
func TestFacadeMembershipSim(t *testing.T) {
	for _, stk := range []modab.Stack{modab.Modular, modab.Monolithic} {
		stk := stk
		t.Run(stk.String(), func(t *testing.T) {
			counts := make(map[modab.ProcessID]int)
			c := newSim(t, netsim.Options{N: 3, Stack: stk, Seed: 11, Durable: true,
				OnDeliver: func(p modab.ProcessID, _ modab.Delivery, _ time.Duration) { counts[p]++ }})
			for i := 0; i < 6; i++ {
				simAbcast(t, c, 0, 0, []byte{byte(i)})
			}
			c.Join(0, 3, 100*time.Millisecond)
			simAbcast(t, c, 3, time.Second, []byte("joiner speaks"))
			c.Remove(1, 0, 1500*time.Millisecond)
			c.Crash(0, 2500*time.Millisecond)
			c.Abcast(0, 3*time.Second, []byte("x"), func(_ modab.MsgID, _ time.Duration, err error) {
				if !errors.Is(err, modab.ErrCrashed) {
					t.Errorf("abcast at removed process: %v", err)
				}
			})
			for p := 1; p < 4; p++ {
				simAbcast(t, c, p, 3*time.Second, []byte{0x40, byte(p)})
			}
			c.RunIdle(time.Minute)
			if c.Procs() != 4 {
				t.Fatalf("%d processes after the join", c.Procs())
			}
			for p := modab.ProcessID(1); p < 4; p++ {
				if v := c.View(p); v.Contains(0) || !v.Contains(3) || len(v.Members) != 3 {
					t.Fatalf("%s view: %v", p, v)
				}
			}
			const total = 6 + 1 + 3
			for p := modab.ProcessID(1); p < 4; p++ {
				if counts[p] != total {
					t.Fatalf("%s delivered %d of %d", p, counts[p], total)
				}
			}
		})
	}
}

// TestFacadeMembershipGroup is the same cycle through the facade, on an
// in-memory group.
func TestFacadeMembershipGroup(t *testing.T) {
	cluster, err := modab.New(3, modab.Monolithic,
		modab.WithDurability(t.TempDir(), modab.SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub := cluster.Deliveries()
	for i := 0; i < 5; i++ {
		if _, err := cluster.Abcast(ctx, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	id, err := cluster.Add(ctx)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, err := cluster.Abcast(ctx, int(id), []byte("from joiner")); err != nil {
		t.Fatalf("abcast at joiner: %v", err)
	}
	if err := cluster.Remove(ctx, 0); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if v := cluster.View(1); v.Contains(0) || !v.Contains(id) {
		t.Fatalf("p1 view after cycle: %v", v)
	}
	// The stream sees every delivery of every live process: 5+1 messages
	// at four processes, minus whatever p0 missed after its removal —
	// just check the joiner's complete stream.
	joinerSeen := 0
	timeout := time.After(30 * time.Second)
	for joinerSeen < 6 {
		select {
		case ev := <-sub.C():
			if ev.P == id {
				joinerSeen++
			}
		case <-timeout:
			t.Fatalf("joiner streamed %d of 6", joinerSeen)
		}
	}
}

// TestAddWithoutDurabilityFailsFast: members without write-ahead logs
// cannot serve a joiner's state transfer, so Add must reject the call
// immediately instead of blocking on a catch-up that never finishes.
func TestAddWithoutDurabilityFailsFast(t *testing.T) {
	cluster, err := modab.New(3, modab.Monolithic)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cluster.Add(ctx); !errors.Is(err, modab.ErrBadConfig) {
		t.Errorf("Add without durability: err = %v, want ErrBadConfig", err)
	}
}

// TestRestartRestoresViewFromSnapshot: a member restarted after
// snapshots truncated the admitting config op out of its log comes back
// in the current view, on both stacks. The first 4 MiB WAL segment holds
// the boot marker and is never truncated, so the Add lands after it;
// enough traffic follows for the segment holding the op to be sealed and
// truncated. Puts rotate over a few keys, so the replicated state stays
// small while the log grows.
func TestRestartRestoresViewFromSnapshot(t *testing.T) {
	for _, stk := range []modab.Stack{modab.Modular, modab.Monolithic} {
		t.Run(stk.String(), func(t *testing.T) {
			cluster, err := modab.New(3, stk,
				modab.WithDurability(t.TempDir(), modab.SyncNone),
				modab.WithStateMachine(func() modab.StateMachine { return modab.NewKV() }, 4))
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
			defer cancel()
			val := make([]byte, 64<<10)
			put := func(from, to int) {
				for i := from; i < to; i++ {
					awaitResult(t, ctx, cluster, i%3, modab.KVPut([]byte{byte(i % 8)}, val))
				}
			}
			put(0, 80)
			id, err := cluster.Add(ctx)
			if err != nil {
				t.Fatalf("Add: %v", err)
			}
			put(80, 240)
			if err := cluster.Crash(1); err != nil {
				t.Fatal(err)
			}
			if err := cluster.Restart(1); err != nil {
				t.Fatal(err)
			}
			if v := cluster.View(1); v.Epoch != 1 || !v.Contains(id) {
				t.Fatalf("restarted p2 view = %+v, want epoch 1 with %s", v, id)
			}
		})
	}
}
