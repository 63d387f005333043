package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/types"
	"modab/internal/wal"
)

// orderLog collects per-process delivery sequences under a mutex.
type orderLog struct {
	mu   sync.Mutex
	seqs [][]types.MsgID
}

func newOrderLog(n int) *orderLog { return &orderLog{seqs: make([][]types.MsgID, n)} }

func (o *orderLog) record(ev engine.Event) {
	o.mu.Lock()
	o.seqs[ev.P] = append(o.seqs[ev.P], ev.D.Msg.ID)
	o.mu.Unlock()
}

func (o *orderLog) count(p int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.seqs[p])
}

func (o *orderLog) snapshot() [][]types.MsgID {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([][]types.MsgID, len(o.seqs))
	for i, s := range o.seqs {
		out[i] = append([]types.MsgID(nil), s...)
	}
	return out
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGroupRestartRecovers runs the crash-recovery scenario on the
// real-time driver with a real file-backed write-ahead log: crash one
// node of a loaded group, keep ordering without it, restart it, and
// every process — the restarted one's pre-crash and post-restart streams
// combined — ends with the identical total order.
func TestGroupRestartRecovers(t *testing.T) {
	for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
		t.Run(stk.String(), func(t *testing.T) {
			const n = 3
			log := newOrderLog(n)
			g, err := NewGroup(n, stk, GroupOptions{
				HeartbeatPeriod: 10 * time.Millisecond,
				SuspectTimeout:  80 * time.Millisecond,
				OnDeliver:       log.record,
				Durability: &DurabilityOptions{
					Dir: t.TempDir(),
					Log: wal.Options{Policy: wal.SyncNone},
				},
			})
			if err != nil {
				t.Fatalf("NewGroup: %v", err)
			}
			defer g.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			total := 0
			submit := func(p, k int) {
				t.Helper()
				for i := 0; i < k; i++ {
					if _, err := g.Abcast(ctx, p, []byte{byte(p), byte(i)}); err != nil {
						t.Fatalf("abcast at p%d: %v", p+1, err)
					}
					total++
				}
			}

			// Phase 1: everybody submits; wait until everybody delivered.
			for p := 0; p < n; p++ {
				submit(p, 15)
			}
			waitFor(t, 10*time.Second, func() bool {
				for p := 0; p < n; p++ {
					if log.count(p) < total {
						return false
					}
				}
				return true
			}, "phase-1 deliveries")

			// Phase 2: p2 crashes; the survivors keep ordering without it.
			if err := g.Crash(1); err != nil {
				t.Fatalf("Crash: %v", err)
			}
			downAt := log.count(1)
			submit(0, 15)
			submit(2, 15)
			waitFor(t, 15*time.Second, func() bool {
				return log.count(0) >= total && log.count(2) >= total
			}, "phase-2 deliveries at the survivors")
			if got := log.count(1); got != downAt {
				t.Fatalf("crashed node delivered %d messages while down", got-downAt)
			}

			// Phase 3: p2 restarts, catches up on what it missed, and the
			// whole group — p2 submitting again included — converges.
			if err := g.Restart(1); err != nil {
				t.Fatalf("Restart: %v", err)
			}
			submit(1, 10)
			waitFor(t, 20*time.Second, func() bool {
				for p := 0; p < n; p++ {
					if log.count(p) < total {
						return false
					}
				}
				return true
			}, "post-restart convergence")

			snap := g.Counters(1)
			if snap.Recoveries != 1 {
				t.Errorf("restarted node Recoveries = %d, want 1", snap.Recoveries)
			}
			if snap.RecoveryReplayedMsgs == 0 {
				t.Error("restarted node replayed nothing from its log")
			}
			if snap.RecoveryFetchedMsgs == 0 {
				t.Error("restarted node fetched nothing from its peers")
			}

			// Identical total order everywhere, no duplicates or gaps.
			seqs := log.snapshot()
			ref := seqs[0][:total]
			seen := map[types.MsgID]struct{}{}
			for _, id := range ref {
				if _, dup := seen[id]; dup {
					t.Fatalf("p1 delivered %s twice", id)
				}
				seen[id] = struct{}{}
			}
			for p := 1; p < n; p++ {
				if len(seqs[p]) < total {
					t.Fatalf("p%d delivered %d of %d", p+1, len(seqs[p]), total)
				}
				for i := 0; i < total; i++ {
					if seqs[p][i] != ref[i] {
						t.Fatalf("p%d delivery %d = %s, p1 has %s (order diverges)", p+1, i, seqs[p][i], ref[i])
					}
				}
			}
		})
	}
}

// TestGroupRestartValidation: Restart is rejected without durability and
// on a still-running process.
func TestGroupRestartValidation(t *testing.T) {
	g, err := NewGroup(3, types.Modular, GroupOptions{})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	defer g.Close()
	if err := g.Restart(0); err == nil {
		t.Fatal("Restart without durability succeeded")
	}

	gd, err := NewGroup(3, types.Modular, GroupOptions{
		Durability: &DurabilityOptions{Dir: t.TempDir(), Log: wal.Options{Policy: wal.SyncNone}},
	})
	if err != nil {
		t.Fatalf("NewGroup durable: %v", err)
	}
	defer gd.Close()
	if err := gd.Restart(0); err == nil {
		t.Fatal("Restart of a running process succeeded")
	}
}
