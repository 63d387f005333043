package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/types"
	"modab/internal/wal"
)

// growLog collects per-process delivery sequences, growing as joiners
// appear.
type growLog struct {
	mu   sync.Mutex
	seqs map[types.ProcessID][]types.MsgID
}

func newGrowLog() *growLog { return &growLog{seqs: make(map[types.ProcessID][]types.MsgID)} }

func (o *growLog) record(ev engine.Event) {
	o.mu.Lock()
	o.seqs[ev.P] = append(o.seqs[ev.P], ev.D.Msg.ID)
	o.mu.Unlock()
}

func (o *growLog) count(p types.ProcessID) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.seqs[p])
}

func (o *growLog) seq(p types.ProcessID) []types.MsgID {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]types.MsgID(nil), o.seqs[p]...)
}

// TestGroupAddRemove runs the full membership cycle on the real-time
// group driver: admit a fourth process under load (it catches up through
// state transfer and then contributes its own messages), retire the
// original coordinator, and check that every survivor — including the
// joiner — ends with the identical total order and the same final view.
func TestGroupAddRemove(t *testing.T) {
	for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
		t.Run(stk.String(), func(t *testing.T) {
			log := newGrowLog()
			g, err := NewGroup(3, stk, GroupOptions{
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
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			for i := 0; i < 8; i++ {
				if _, err := g.Abcast(ctx, 0, []byte{byte(i)}); err != nil {
					t.Fatalf("abcast %d: %v", i, err)
				}
			}
			waitFor(t, 30*time.Second, func() bool {
				return log.count(0) == 8 && log.count(1) == 8 && log.count(2) == 8
			}, "pre-join deliveries")

			id, err := g.Add(ctx, "")
			if err != nil {
				t.Fatalf("Add: %v", err)
			}
			if id != 3 {
				t.Fatalf("joiner ID = %v, want 3", id)
			}
			if g.N() != 4 {
				t.Fatalf("N = %d after join", g.N())
			}
			// Add returns once every live process has applied the
			// admitting view.
			if v := g.View(1); !v.Contains(3) || len(v.Members) != 4 {
				t.Fatalf("p1 view after join: %v", v)
			}
			for p := 0; p < 4; p++ {
				if _, err := g.Abcast(ctx, p, []byte{0x10, byte(p)}); err != nil {
					t.Fatalf("abcast at p%d after join: %v", p, err)
				}
			}

			if err := g.Remove(ctx, 0); err != nil {
				t.Fatalf("Remove: %v", err)
			}
			if _, err := g.Abcast(ctx, 0, []byte{0xff}); !errors.Is(err, types.ErrCrashed) {
				t.Fatalf("abcast at removed process: %v", err)
			}
			for p := 1; p < 4; p++ {
				if _, err := g.Abcast(ctx, p, []byte{0x20, byte(p)}); err != nil {
					t.Fatalf("abcast at p%d after remove: %v", p, err)
				}
			}

			const total = 8 + 4 + 3
			waitFor(t, 30*time.Second, func() bool {
				return log.count(1) == total && log.count(2) == total && log.count(3) == total
			}, "post-remove deliveries")
			ref := log.seq(1)
			for p := types.ProcessID(2); p < 4; p++ {
				got := log.seq(p)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("p%d diverges from p1 at %d: %v vs %v", p, i, got[i], ref[i])
					}
				}
			}
			for p := 1; p < 4; p++ {
				v := g.View(p)
				if v.Contains(0) || !v.Contains(3) || len(v.Members) != 3 {
					t.Fatalf("p%d final view: %v", p, v)
				}
			}
		})
	}
}

// freeAddrs reserves n distinct listen addresses by binding and
// immediately releasing them (the usual bind-races are negligible on a
// loopback test host).
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		_ = ln.Close()
	}
	return addrs
}

// TestTCPNodeJoin exercises the abnode deployment path: a three-process
// TCP group is running, a fourth process starts with Join set, asks a
// member to sponsor its admission (RequestJoin), and the members learn
// its address from the decided op itself — no restart, no out-of-band
// address exchange. The joiner then both delivers the full history and
// gets its own submissions ordered.
func TestTCPNodeJoin(t *testing.T) {
	addrs := freeAddrs(t, 4)
	log := newGrowLog()
	dir := t.TempDir()
	mkNode := func(self int, join bool) *Group {
		t.Helper()
		table := addrs[:3]
		if join {
			table = addrs // the joiner knows its own slot; members learn it from the op
		}
		g, err := NewGroup(len(table), types.Monolithic, GroupOptions{
			Self:            types.ProcessID(self),
			Addrs:           append([]string(nil), table...),
			OnDeliver:       log.record,
			HeartbeatPeriod: 10 * time.Millisecond,
			SuspectTimeout:  120 * time.Millisecond,
			Durability: &DurabilityOptions{
				Dir: filepath.Join(dir, fmt.Sprintf("p%d", self)),
				Log: wal.Options{Policy: wal.SyncNone},
			},
			Join: join,
		})
		if err != nil {
			t.Fatalf("NewGroup p%d: %v", self, err)
		}
		return g
	}
	nodes := make([]*Group, 3)
	for i := range nodes {
		nodes[i] = mkNode(i, false)
		defer nodes[i].Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := nodes[0].Abcast(ctx, 0, []byte{byte(i)}); err != nil {
			t.Fatalf("abcast %d: %v", i, err)
		}
	}
	waitFor(t, 30*time.Second, func() bool {
		return log.count(0) == 5 && log.count(1) == 5 && log.count(2) == 5
	}, "boot deliveries")
	if err := nodes[0].RequestJoin(ctx, 1); !errors.Is(err, types.ErrBadConfig) {
		t.Fatalf("RequestJoin at a boot member: %v", err)
	}

	joiner := mkNode(3, true)
	defer joiner.Close()
	// Ask p0 to sponsor the admission; RequestJoin re-sends the
	// fire-and-forget request until the view admits us.
	if err := joiner.RequestJoin(ctx, 0); err != nil {
		t.Fatalf("RequestJoin: %v", err)
	}
	waitFor(t, 30*time.Second, func() bool { return log.count(3) == 5 }, "joiner catch-up")
	if _, err := joiner.Abcast(ctx, 3, []byte("from the joiner")); err != nil {
		t.Fatalf("joiner abcast: %v", err)
	}
	waitFor(t, 30*time.Second, func() bool {
		for p := types.ProcessID(0); p < 4; p++ {
			if log.count(p) != 6 {
				return false
			}
		}
		return true
	}, "joiner's message everywhere")
	ref := log.seq(0)
	for p := types.ProcessID(1); p < 4; p++ {
		got := log.seq(p)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("p%d diverges at %d", p, i)
			}
		}
	}
	for i, g := range append(nodes, joiner) {
		if v := g.View(i); !v.Contains(3) || len(v.Members) != 4 {
			t.Fatalf("p%d final view: %v", i, v)
		}
		// Every member grew a slot for the joiner from the decided op.
		if g.N() != 4 {
			t.Fatalf("p%d: N = %d after the join", i, g.N())
		}
	}
}
