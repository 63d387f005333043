package modab_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modab"
)

// group is one atomic broadcast group behind the facade, however many
// clusters it takes to drive it: one (in memory) or one per process (TCP
// on loopback).
type group struct {
	t        *testing.T
	stack    modab.Stack
	clusters []*modab.Cluster
	addrs    []string // TCP only
	opts     func(p int) []modab.Option
	made     []*atomic.Int64 // state machines built, per cluster

	mu     sync.Mutex
	orders map[modab.ProcessID][]modab.MsgID
	subs   sync.WaitGroup
}

// of returns the cluster driving process p.
func (g *group) of(p int) *modab.Cluster {
	if len(g.addrs) == 0 {
		return g.clusters[0]
	}
	return g.clusters[p]
}

// built counts the state machines the cluster driving p has built.
func (g *group) built(p int) int64 {
	if len(g.addrs) == 0 {
		return g.made[0].Load()
	}
	return g.made[p].Load()
}

// start builds one cluster and records its delivery stream.
func (g *group) start(n int, extra ...modab.Option) *modab.Cluster {
	g.t.Helper()
	made := new(atomic.Int64)
	opts := append(g.opts(len(g.clusters)),
		modab.WithStateMachine(func() modab.StateMachine { made.Add(1); return modab.NewKV() }, 0),
		modab.WithObservability(1))
	c, err := modab.New(n, g.stack, append(opts, extra...)...)
	if err != nil {
		g.t.Fatalf("New: %v", err)
	}
	g.clusters = append(g.clusters, c)
	g.made = append(g.made, made)
	sub := c.Deliveries(modab.StreamBuffer(4096))
	g.subs.Add(1)
	go func() {
		defer g.subs.Done()
		for ev := range sub.C() {
			g.mu.Lock()
			g.orders[ev.P] = append(g.orders[ev.P], ev.D.Msg.ID)
			g.mu.Unlock()
		}
	}()
	return c
}

func (g *group) order(p int) []modab.MsgID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]modab.MsgID(nil), g.orders[modab.ProcessID(p)]...)
}

// waitFor polls cond.
func (g *group) waitFor(what string, cond func() bool) {
	g.t.Helper()
	start := time.Now()
	for !cond() {
		if time.Since(start) > 30*time.Second {
			g.mu.Lock()
			for p, o := range g.orders {
				g.t.Logf("%s delivered %d: %v", p, len(o), o)
			}
			g.mu.Unlock()
			g.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs
}

// TestFacadeConformance runs one script against the facade in memory and
// over TCP, on both stacks: total-order agreement, ErrNotLocal for a process another
// cluster drives, Crash+Restart of a durable replicated state machine,
// Add/Remove observed at a survivor, and an idempotent Close that ends
// every stream.
func TestFacadeConformance(t *testing.T) {
	const n = 3
	for _, drv := range []struct {
		name  string
		build func(t *testing.T, g *group)
	}{
		{"memory", func(t *testing.T, g *group) {
			dir := t.TempDir()
			g.opts = func(int) []modab.Option {
				return []modab.Option{modab.WithDurability(dir, modab.SyncNone)}
			}
			g.start(n)
		}},
		{"tcp", func(t *testing.T, g *group) {
			dir := t.TempDir()
			g.addrs = reservePorts(t, n+1) // the last one is the joiner's
			g.opts = func(p int) []modab.Option {
				return []modab.Option{modab.WithDurability(filepath.Join(dir, fmt.Sprint(p)), modab.SyncNone)}
			}
			for p := 0; p < n; p++ {
				g.start(n, modab.WithTransportTCP(g.addrs[:n], modab.ProcessID(p)))
			}
		}},
	} {
		t.Run(drv.name, func(t *testing.T) {
			for _, stk := range []modab.Stack{modab.Modular, modab.Monolithic} {
				t.Run(stk.String(), func(t *testing.T) {
					g := &group{t: t, stack: stk, orders: make(map[modab.ProcessID][]modab.MsgID)}
					drv.build(t, g)
					defer func() {
						for _, c := range g.clusters {
							_ = c.Close()
						}
					}()
					ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
					defer cancel()
					sent := 0
					put := func(p int) {
						t.Helper()
						cmd := modab.KVPut([]byte(fmt.Sprintf("k%d-%d", p, sent)), []byte{byte(sent)})
						if _, err := g.of(p).Abcast(ctx, p, cmd); err != nil {
							t.Fatalf("abcast at p%d: %v", p, err)
						}
						sent++
					}
					caughtUp := func(procs ...int) func() bool {
						return func() bool {
							for _, p := range procs {
								if len(g.order(p)) < sent {
									return false
								}
							}
							return true
						}
					}
					sameOrder := func(ref int, procs ...int) {
						t.Helper()
						want := g.order(ref)
						for _, p := range procs {
							got := g.order(p)
							for i := range got {
								if i >= len(want) || got[i] != want[i] {
									t.Fatalf("p%d diverges from p%d at %d", p, ref, i)
								}
							}
						}
					}

					// Total order.
					for i := 0; i < 4; i++ {
						for p := 0; p < n; p++ {
							put(p)
						}
					}
					g.waitFor("first deliveries", caughtUp(0, 1, 2))
					sameOrder(0, 1, 2)

					// Out of range everywhere; not local where another cluster drives p.
					c0 := g.of(0)
					if _, err := c0.Abcast(ctx, 9, nil); !errors.Is(err, modab.ErrBadConfig) {
						t.Errorf("Abcast(9): %v", err)
					}
					if err := c0.Crash(-1); !errors.Is(err, modab.ErrBadConfig) {
						t.Errorf("Crash(-1): %v", err)
					}
					if c0.Counters(9).ADeliver != 0 || c0.Applier(9) != nil || c0.Obs(-1) != nil {
						t.Error("out-of-range process has state")
					}
					if err := c0.RequestJoin(ctx, 1); !errors.Is(err, modab.ErrBadConfig) {
						t.Errorf("RequestJoin without WithJoin: %v", err)
					}
					if len(g.addrs) > 0 {
						_, aerr := c0.Abcast(ctx, 1, nil)
						_, terr := c0.TryAbcast(1, nil)
						for what, err := range map[string]error{
							"Abcast": aerr, "TryAbcast": terr, "Crash": c0.Crash(1), "Restart": c0.Restart(1),
						} {
							if !errors.Is(err, modab.ErrNotLocal) {
								t.Errorf("%s at a remote process: %v", what, err)
							}
						}
						if c0.Counters(1).ADeliver != 0 || len(c0.View(1).Members) != 0 ||
							c0.Applier(1) != nil || c0.Obs(1) != nil {
							t.Error("remote process has local state")
						}
						if st := c0.Stats(); st.N != n || st.Total.ADeliver != st.PerProcess[0].ADeliver {
							t.Errorf("stats of a one-process cluster: %+v", st)
						}
					}

					// Crash and restart p2 under WithDurability + WithStateMachine.
					c2 := g.of(2)
					rec, made := c2.Obs(2), g.built(2)
					applied := rec.Apply.Snapshot().Count
					if applied == 0 || c2.Counters(2).ABCast == 0 {
						t.Fatalf("before the crash: %d applies recorded, counters %+v", applied, c2.Counters(2))
					}
					if err := c2.Crash(2); err != nil {
						t.Fatalf("Crash: %v", err)
					}
					if _, err := c2.Abcast(ctx, 2, nil); !errors.Is(err, modab.ErrCrashed) {
						t.Fatalf("abcast at the crashed process: %v", err)
					}
					put(0)
					put(1)
					g.waitFor("deliveries without p2", caughtUp(0, 1))
					if err := c2.Restart(2); err != nil {
						t.Fatalf("Restart: %v", err)
					}
					if got := g.built(2); got != made+1 {
						t.Errorf("state machines built across the restart: %d -> %d, want one more", made, got)
					}
					if c2.Counters(2).ABCast != 0 {
						t.Errorf("counters did not restart from zero: %+v", c2.Counters(2))
					}
					put(2)
					g.waitFor("p2 caught up", caughtUp(0, 1, 2))
					sameOrder(0, 1, 2) // p2: both incarnations' streams combined
					if c2.Obs(2) != rec || rec.Apply.Snapshot().Count <= applied {
						t.Errorf("recorder did not accumulate across incarnations (%d -> %d applies)", applied, rec.Apply.Snapshot().Count)
					}
					g.waitFor("equal KV state", func() bool {
						return bytes.Equal(c2.Applier(2).StateDigest(), c0.Applier(0).StateDigest())
					})

					// Add a fourth process, then remove it again; a survivor that did
					// not sponsor either op observes both views.
					var id modab.ProcessID
					var err error
					if len(g.addrs) == 0 {
						id, err = c0.Add(ctx)
					} else {
						g.start(n+1, modab.WithTransportTCP(g.addrs, n), modab.WithJoin(n))
						id, err = c0.Add(ctx, g.addrs[n])
					}
					if err != nil || id != n {
						t.Fatalf("Add = %v, %v", id, err)
					}
					g.waitFor("p1 admits the joiner", func() bool { return g.of(1).View(1).Contains(id) })
					g.waitFor("the joiner admits itself", func() bool { return g.of(n).View(n).Contains(id) })
					if got := g.of(1).N(); got != n+1 {
						t.Errorf("N at a survivor after the join = %d", got)
					}
					put(n)
					g.waitFor("deliveries with the joiner", caughtUp(0, 1, 2, n))
					sameOrder(0, 1, 2, n)
					if err := c0.Remove(ctx, n); err != nil {
						t.Fatalf("Remove: %v", err)
					}
					if len(g.addrs) > 0 {
						// Over TCP Remove only retires the process; its operator
						// stops it.
						if err := g.of(n).Close(); err != nil {
							t.Errorf("stopping the removed process: %v", err)
						}
					}
					g.waitFor("p1 drops the joiner", func() bool {
						v := g.of(1).View(1)
						return !v.Contains(id) && len(v.Members) == n
					})
					put(1)
					g.waitFor("deliveries after the removal", caughtUp(0, 1, 2))
					sameOrder(0, 1, 2)

					// Close is idempotent and ends every stream.
					for p, c := range g.clusters {
						if err := c.Close(); err != nil {
							t.Errorf("Close: %v", err)
						}
						if err := c.Close(); err != nil {
							t.Errorf("second Close: %v", err)
						}
						if _, err := c.Abcast(ctx, p, nil); !errors.Is(err, modab.ErrStopped) {
							t.Errorf("abcast on a closed cluster: %v", err)
						}
					}
					done := make(chan struct{})
					go func() { g.subs.Wait(); close(done) }()
					select {
					case <-done:
					case <-time.After(10 * time.Second):
						t.Fatal("delivery streams still open after Close")
					}
				})
			}
		})
	}
}
