package modab_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"modab"
)

// orderLog collects per-process delivery sequences from the delivery
// streams of one or more clusters, growing as joiners appear.
type orderLog struct {
	mu   sync.Mutex
	seqs map[modab.ProcessID][]modab.MsgID
}

func newOrderLog() *orderLog { return &orderLog{seqs: make(map[modab.ProcessID][]modab.MsgID)} }

// follow records every adelivery of c until its stream closes.
func (o *orderLog) follow(c *modab.Cluster) {
	sub := c.Deliveries()
	go func() {
		for ev := range sub.C() {
			o.mu.Lock()
			o.seqs[ev.P] = append(o.seqs[ev.P], ev.D.Msg.ID)
			o.mu.Unlock()
		}
	}()
}

func (o *orderLog) count(p int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.seqs[modab.ProcessID(p)])
}

func (o *orderLog) seq(p int) []modab.MsgID {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]modab.MsgID(nil), o.seqs[modab.ProcessID(p)]...)
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

func TestLocalGroupTotalOrder(t *testing.T) {
	g, err := modab.New(3, modab.Modular)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	log := newOrderLog()
	log.follow(g)
	if g.N() != 3 {
		t.Fatalf("N = %d", g.N())
	}
	for p := 0; p < 3; p++ {
		if _, err := g.Abcast(context.Background(), p, []byte{byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		return log.count(0) == 3 && log.count(1) == 3 && log.count(2) == 3
	}, "deliveries")
	ref := log.seq(0)
	for p := 1; p < 3; p++ {
		got := log.seq(p)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("divergence at %d", i)
			}
		}
	}
}

func TestLocalGroupCrashSurvivors(t *testing.T) {
	g, err := modab.New(3, modab.Monolithic)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	log := newOrderLog()
	log.follow(g)
	if err := g.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := g.Crash(0); err != nil {
		t.Fatal("double crash should be nil")
	}
	// Survivors keep working once the FD suspects the dead coordinator.
	done := make(chan error, 1)
	go func() {
		_, err := g.Abcast(context.Background(), 1, []byte("after crash"))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("abcast blocked forever after crash")
	}
	waitFor(t, 10*time.Second, func() bool { return log.count(1) >= 1 && log.count(2) >= 1 },
		"survivors' deliveries")
}

func TestLocalGroupValidation(t *testing.T) {
	if _, err := modab.New(0, modab.Modular); err == nil {
		t.Error("accepted empty group")
	}
	if _, err := modab.New(2, 0); err == nil {
		t.Error("accepted zero stack")
	}
}

func TestTCPNodeEndToEnd(t *testing.T) {
	// A single-process TCP "group" sanity check (multi-process TCP is
	// covered in internal/runtime and TestFacadeConformance).
	g, err := modab.New(1, modab.Monolithic, modab.WithTransportTCP([]string{"127.0.0.1:0"}, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	log := newOrderLog()
	log.follow(g)
	if _, err := g.Abcast(context.Background(), 0, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return log.count(0) == 1 }, "the delivery")
}

func TestTCPNodeBadAddr(t *testing.T) {
	if _, err := modab.New(1, modab.Modular,
		modab.WithTransportTCP([]string{"256.256.256.256:99999"}, 0)); err == nil {
		t.Error("accepted unlistenable address")
	}
	if _, err := modab.New(2, modab.Modular,
		modab.WithTransportTCP([]string{"127.0.0.1:0"}, 0)); !errors.Is(err, modab.ErrBadConfig) {
		t.Errorf("n != len(addrs): %v", err)
	}
	if _, err := modab.New(2, modab.Modular, modab.WithJoin(0)); !errors.Is(err, modab.ErrBadConfig) {
		t.Errorf("Join without addrs: %v", err)
	}
}

// TestGroupDeliveriesStream consumes the cluster-wide stream and checks
// per-process order and completeness.
func TestGroupDeliveriesStream(t *testing.T) {
	g, err := modab.New(3, modab.Monolithic)
	if err != nil {
		t.Fatal(err)
	}
	sub := g.Deliveries()
	const perProc = 4
	for p := 0; p < g.N(); p++ {
		for j := 0; j < perProc; j++ {
			if _, err := g.Abcast(context.Background(), p, []byte{byte(p), byte(j)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every process adelivers every message: 3 processes × 12 messages.
	want := g.N() * g.N() * perProc
	seen := make(map[modab.ProcessID][]modab.MsgID)
	timeout := time.After(15 * time.Second)
	for got := 0; got < want; got++ {
		select {
		case ev := <-sub.C():
			seen[ev.P] = append(seen[ev.P], ev.D.Msg.ID)
		case <-timeout:
			t.Fatalf("stream delivered %d of %d", got, want)
		}
	}
	ref := seen[0]
	for p := modab.ProcessID(1); int(p) < g.N(); p++ {
		for i := range ref {
			if seen[p][i] != ref[i] {
				t.Fatalf("stream order diverges at %d: p0=%v p%d=%v", i, ref[i], p, seen[p][i])
			}
		}
	}
	// Close ends the stream.
	g.Close()
	if _, ok := <-sub.C(); ok {
		t.Fatal("stream yielded a value after cluster close and drain")
	}
}

// TestDeliveriesStream reads a one-process cluster's adeliveries from the
// pull-based stream and checks content and order.
func TestDeliveriesStream(t *testing.T) {
	g, err := modab.New(1, modab.Monolithic)
	if err != nil {
		t.Fatal(err)
	}
	sub := g.Deliveries()
	const k = 5
	ids := make([]modab.MsgID, 0, k)
	for j := 0; j < k; j++ {
		id, err := g.Abcast(context.Background(), 0, []byte{byte(j)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for j := 0; j < k; j++ {
		select {
		case ev := <-sub.C():
			if ev.D.Msg.ID != ids[j] {
				t.Fatalf("position %d: got %v, want %v", j, ev.D.Msg.ID, ids[j])
			}
			if len(ev.D.Msg.Body) != 1 || ev.D.Msg.Body[0] != byte(j) {
				t.Fatalf("position %d: body %v", j, ev.D.Msg.Body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for delivery %d", j)
		}
	}
	// Closing the cluster ends the stream.
	_ = g.Close()
	select {
	case _, ok := <-sub.C():
		if ok {
			t.Fatal("unexpected extra delivery")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream not closed after cluster close")
	}
}

// TestDeliveriesOverflowDrop checks the drop policy: a subscriber that
// never reads loses deliveries, the losses are counted in StreamDropped,
// and nothing is lost twice.
func TestDeliveriesOverflowDrop(t *testing.T) {
	g, err := modab.New(1, modab.Monolithic)
	if err != nil {
		t.Fatal(err)
	}
	sub := g.Deliveries(modab.StreamBuffer(1), modab.StreamOverflow(modab.OverflowDrop))
	const k = 30
	for j := 0; j < k; j++ {
		if _, err := g.Abcast(context.Background(), 0, []byte{byte(j)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return g.Stats().Total.ADeliver >= k }, "every adelivery")
	_ = g.Close()
	received := 0
	for range sub.C() {
		received++
	}
	dropped := g.Stats().Total.StreamDropped
	if dropped == 0 {
		t.Fatal("no drops counted for an unread drop-policy subscriber")
	}
	if dropped != sub.Dropped() {
		t.Fatalf("StreamDropped %d != subscription counter %d", dropped, sub.Dropped())
	}
	if int64(received)+dropped != k {
		t.Fatalf("received %d + dropped %d != abcast %d", received, dropped, k)
	}
}

// TestSubscribeAfterClusterClose checks the documented semantics: a
// subscription taken after Close sees an immediately closed channel.
func TestSubscribeAfterClusterClose(t *testing.T) {
	g, err := modab.New(1, modab.Modular)
	if err != nil {
		t.Fatal(err)
	}
	_ = g.Close()
	sub := g.Deliveries()
	select {
	case _, ok := <-sub.C():
		if ok {
			t.Fatal("received a delivery from a closed cluster")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-close subscription channel not closed")
	}
	sub.Close() // safe no-op
}

// TestGroupStats checks the uniform Stats surface.
func TestGroupStats(t *testing.T) {
	g, err := modab.New(3, modab.Modular)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Abcast(context.Background(), 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return g.Stats().Total.ADeliver >= 3 }, "three adeliveries")
	st := g.Stats()
	if st.N != 3 || len(st.PerProcess) != 3 {
		t.Fatalf("stats shape: %+v", st)
	}
	if st.PerProcess[0].ABCast != 1 {
		t.Fatalf("p0 counters: %+v", st.PerProcess[0])
	}
}

// TestGroupAbcastCanceledContext checks ctx.Err() propagation through the
// facade.
func TestGroupAbcastCanceledContext(t *testing.T) {
	g, err := modab.New(3, modab.Modular)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A pre-canceled context may still win the race against instant
	// admission only when the window is full; force fullness first.
	cfgFull := 0
	for {
		if _, err := g.TryAbcast(0, []byte("fill")); err != nil {
			break
		}
		cfgFull++
		if cfgFull > 10000 {
			t.Skip("window never filled (deliveries too fast)")
		}
	}
	if _, err := g.Abcast(ctx, 0, []byte("blocked")); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestGroupRestartRecovers runs the crash-recovery scenario on the
// real-time driver with a real file-backed write-ahead log: crash one
// node of a loaded group, keep ordering without it, restart it, and
// every process — the restarted one's pre-crash and post-restart streams
// combined — ends with the identical total order.
func TestGroupRestartRecovers(t *testing.T) {
	for _, stk := range []modab.Stack{modab.Modular, modab.Monolithic} {
		t.Run(stk.String(), func(t *testing.T) {
			const n = 3
			g, err := modab.New(n, stk, modab.WithDurability(t.TempDir(), modab.SyncNone))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer g.Close()
			log := newOrderLog()
			log.follow(g)

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
			ref := log.seq(0)[:total]
			seen := map[modab.MsgID]struct{}{}
			for _, id := range ref {
				if _, dup := seen[id]; dup {
					t.Fatalf("p1 delivered %s twice", id)
				}
				seen[id] = struct{}{}
			}
			for p := 1; p < n; p++ {
				got := log.seq(p)
				if len(got) < total {
					t.Fatalf("p%d delivered %d of %d", p+1, len(got), total)
				}
				for i := 0; i < total; i++ {
					if got[i] != ref[i] {
						t.Fatalf("p%d delivery %d = %s, p1 has %s (order diverges)", p+1, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// TestGroupRestartValidation: Restart is rejected without durability and
// on a still-running process.
func TestGroupRestartValidation(t *testing.T) {
	g, err := modab.New(3, modab.Modular)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()
	if err := g.Restart(0); err == nil {
		t.Fatal("Restart without durability succeeded")
	}

	gd, err := modab.New(3, modab.Modular, modab.WithDurability(t.TempDir(), modab.SyncNone))
	if err != nil {
		t.Fatalf("New durable: %v", err)
	}
	defer gd.Close()
	if err := gd.Restart(0); err == nil {
		t.Fatal("Restart of a running process succeeded")
	}
}

// TestGroupAddRemove runs the full membership cycle on the real-time
// driver: admit a fourth process under load (it catches up through state
// transfer and then contributes its own messages), retire the original
// coordinator, and check that every survivor — including the joiner —
// ends with the identical total order and the same final view.
func TestGroupAddRemove(t *testing.T) {
	for _, stk := range []modab.Stack{modab.Modular, modab.Monolithic} {
		t.Run(stk.String(), func(t *testing.T) {
			g, err := modab.New(3, stk, modab.WithDurability(t.TempDir(), modab.SyncNone))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer g.Close()
			log := newOrderLog()
			log.follow(g)
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

			id, err := g.Add(ctx)
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
			if _, err := g.Abcast(ctx, 0, []byte{0xff}); !errors.Is(err, modab.ErrCrashed) {
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
			for p := 2; p < 4; p++ {
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

// tcpMember starts process self of a monolithic TCP group booted over
// addrs[:3], with a durable log under dir, its deliveries followed by log.
// A joiner knows its own slot (members learn it from the decided op) and
// starts with WithJoin.
func tcpMember(t *testing.T, addrs []string, dir string, log *orderLog, self int, join bool) *modab.Cluster {
	t.Helper()
	table := addrs[:3]
	opts := []modab.Option{modab.WithDurability(filepath.Join(dir, fmt.Sprintf("p%d", self)), modab.SyncNone)}
	if join {
		table = addrs
		opts = append(opts, modab.WithJoin(0))
	}
	opts = append(opts, modab.WithTransportTCP(append([]string(nil), table...), modab.ProcessID(self)))
	g, err := modab.New(len(table), modab.Monolithic, opts...)
	if err != nil {
		t.Fatalf("New p%d: %v", self, err)
	}
	log.follow(g)
	return g
}

// TestTCPNodeJoin exercises the abnode deployment path: a three-process
// TCP group is running, a fourth process starts with WithJoin, asks a
// member to sponsor its admission (RequestJoin), and the members learn
// its address from the decided op itself — no restart, no out-of-band
// address exchange. The joiner then both delivers the full history and
// gets its own submissions ordered.
func TestTCPNodeJoin(t *testing.T) {
	addrs := reservePorts(t, 4)
	log := newOrderLog()
	dir := t.TempDir()
	mkNode := func(self int, join bool) *modab.Cluster { return tcpMember(t, addrs, dir, log, self, join) }
	nodes := make([]*modab.Cluster, 3)
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
	if err := nodes[0].RequestJoin(ctx, 1); !errors.Is(err, modab.ErrBadConfig) {
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
		for p := 0; p < 4; p++ {
			if log.count(p) != 6 {
				return false
			}
		}
		return true
	}, "joiner's message everywhere")
	ref := log.seq(0)
	for p := 1; p < 4; p++ {
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

// TestTCPNodeRemoveRetiresPeer: once a member that left for good is
// removed, the others stop dialing it within one backoff and drop what
// they held for it — their goroutine count is back where it was before it
// joined. (Its writers used to re-dial every 250 ms until Close.)
func TestTCPNodeRemoveRetiresPeer(t *testing.T) {
	addrs := reservePorts(t, 4)
	log := newOrderLog()
	dir := t.TempDir()
	nodes := make([]*modab.Cluster, 3)
	for i := range nodes {
		nodes[i] = tcpMember(t, addrs, dir, log, i, false)
		defer nodes[i].Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := nodes[0].Abcast(ctx, 0, []byte("boot")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, func() bool { return log.count(0) == 1 && log.count(1) == 1 && log.count(2) == 1 }, "boot deliveries")
	before := goruntime.NumGoroutine()

	joiner := tcpMember(t, addrs, dir, log, 3, true)
	if err := joiner.RequestJoin(ctx, 0); err != nil {
		joiner.Close()
		t.Fatalf("RequestJoin: %v", err)
	}
	waitFor(t, 30*time.Second, func() bool { return log.count(3) == 1 }, "joiner catch-up")
	joiner.Close() // gone for good: every dial to it is refused
	dialFailures := func() (n int64) {
		for i, g := range nodes {
			n += g.Stats().PerProcess[i].TransportDialFailures
		}
		return n
	}
	waitFor(t, 10*time.Second, func() bool { return dialFailures() > 0 }, "a refused dial to the departed joiner")

	if err := nodes[0].Remove(ctx, 3); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	waitFor(t, 10*time.Second, func() bool {
		for i, g := range nodes {
			if g.View(i).Contains(3) {
				return false
			}
		}
		return true
	}, "the remove applied everywhere")
	time.Sleep(300 * time.Millisecond) // one dial backoff
	settled := dialFailures()
	time.Sleep(time.Second)
	if got := dialFailures(); got != settled {
		t.Fatalf("dial failures still rising after the remove: %d -> %d", settled, got)
	}
	waitFor(t, 10*time.Second, func() bool { return goruntime.NumGoroutine() <= before },
		"goroutines back to their count before the join")
}
