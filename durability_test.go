package modab_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"modab"
	"modab/internal/netsim"
)

// TestDurabilityRestartGroup drives the crash-recovery surface through
// the facade on the default in-memory group driver: WithDurability, a
// crash, Restart, and post-recovery convergence.
func TestDurabilityRestartGroup(t *testing.T) {
	cluster, err := modab.New(3, modab.Monolithic,
		modab.WithDurability(t.TempDir(), modab.SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var mu sync.Mutex
	perProc := make(map[int]int)
	sub := cluster.Deliveries()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range sub.C() {
			mu.Lock()
			perProc[int(ev.P)]++
			mu.Unlock()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	total := 0
	submit := func(p, k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if _, err := cluster.Abcast(ctx, p, []byte("payload")); err != nil {
				t.Fatalf("abcast at p%d: %v", p+1, err)
			}
			total++
		}
	}
	delivered := func(p int) int {
		mu.Lock()
		defer mu.Unlock()
		return perProc[p]
	}
	waitAll := func(procs ...int) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			done := true
			for _, p := range procs {
				if delivered(p) < total {
					done = false
				}
			}
			if done {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timeout: delivered=%v want %d", perProc, total)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	submit(0, 10)
	submit(1, 10)
	waitAll(0, 1, 2)

	if err := cluster.Crash(1); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, err := cluster.Abcast(ctx, 1, []byte("x")); !errors.Is(err, modab.ErrCrashed) {
		t.Fatalf("abcast at crashed process = %v, want ErrCrashed", err)
	}
	submit(0, 10)
	waitAll(0, 2)

	if err := cluster.Restart(1); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	submit(1, 5)
	waitAll(0, 1, 2)

	snap := cluster.Counters(1)
	if snap.Recoveries != 1 || snap.RecoveryFetchedMsgs == 0 {
		t.Fatalf("restarted process counters: %+v", snap)
	}
	sub.Close()
	wg.Wait()
}

// TestDurabilityRestartSim drives the same crash, restart and catch-up
// on the simulator, where durability is a deterministic in-memory store
// and each step happens at the virtual instant the previous one idled.
func TestDurabilityRestartSim(t *testing.T) {
	c := newSim(t, netsim.Options{N: 3, Stack: modab.Modular, Seed: 42, Durable: true})
	for i := 0; i < 8; i++ {
		simAbcast(t, c, i%3, 0, []byte("m"))
	}
	c.RunIdle(time.Minute)

	c.Crash(1, c.Now())
	for i := 0; i < 6; i++ {
		simAbcast(t, c, 0, c.Now(), []byte("while-down"))
	}
	c.RunIdle(time.Minute)

	c.Restart(1, c.Now())
	c.RunIdle(time.Minute)
	simAbcast(t, c, 1, c.Now(), []byte("back"))
	c.RunIdle(time.Minute)

	snap := c.Counters(1)
	if snap.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", snap.Recoveries)
	}
	if snap.RecoveryFetchedMsgs == 0 {
		t.Fatal("restarted process fetched nothing")
	}
	// Every process ends with the same delivery count (total order, no
	// gaps; simulated counters accumulate across incarnations): 8 + 6 + 1
	// messages.
	for p := modab.ProcessID(0); p < 3; p++ {
		if got := c.Counters(p).ADeliver; got != 15 {
			t.Fatalf("%s ADeliver = %d, want 15", p, got)
		}
	}
}

// TestDurabilityValidation: the facade refuses an empty
// directory, and Restart without WithDurability is rejected.
func TestDurabilityValidation(t *testing.T) {
	if _, err := modab.New(3, modab.Modular, modab.WithDurability("", modab.SyncAlways)); err == nil {
		t.Fatal("WithDurability(\"\") on the group driver succeeded")
	}
	cluster, err := modab.New(3, modab.Modular)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Restart(0); err == nil {
		t.Fatal("Restart without WithDurability succeeded")
	}
}
