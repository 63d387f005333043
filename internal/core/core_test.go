package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/types"
)

func TestLocalGroupTotalOrder(t *testing.T) {
	var mu sync.Mutex
	orders := make(map[types.ProcessID][]types.MsgID)
	g, err := NewGroup(3, types.Modular, GroupOptions{OnDeliver: func(ev engine.Event) {
		mu.Lock()
		orders[ev.P] = append(orders[ev.P], ev.D.Msg.ID)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.N() != 3 {
		t.Fatalf("N = %d", g.N())
	}
	for p := 0; p < 3; p++ {
		if _, err := g.Abcast(context.Background(), p, []byte{byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		done := len(orders[0]) == 3 && len(orders[1]) == 3 && len(orders[2]) == 3
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for p := types.ProcessID(1); p < 3; p++ {
		for i := range orders[0] {
			if orders[p][i] != orders[0][i] {
				t.Fatalf("divergence at %d", i)
			}
		}
	}
}

func TestLocalGroupCrashSurvivors(t *testing.T) {
	var mu sync.Mutex
	count := make(map[types.ProcessID]int)
	g, err := NewGroup(3, types.Monolithic, GroupOptions{OnDeliver: func(ev engine.Event) {
		mu.Lock()
		count[ev.P]++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
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
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		ok := count[1] >= 1 && count[2] >= 1
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never delivered")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestLocalGroupValidation(t *testing.T) {
	if _, err := NewGroup(0, types.Modular, GroupOptions{}); err == nil {
		t.Error("accepted empty group")
	}
	if _, err := NewGroup(2, 0, GroupOptions{}); err == nil {
		t.Error("accepted zero stack")
	}
}

func TestTCPNodeEndToEnd(t *testing.T) {
	// A single-process TCP "group" sanity check (multi-process TCP is
	// covered in internal/runtime).
	var mu sync.Mutex
	delivered := 0
	g, err := NewGroup(1, types.Monolithic, GroupOptions{
		Addrs: []string{"127.0.0.1:0"},
		OnDeliver: func(engine.Event) {
			mu.Lock()
			delivered++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Abcast(context.Background(), 0, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		ok := delivered == 1
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("not delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTCPNodeBadAddr(t *testing.T) {
	if _, err := NewGroup(1, types.Modular, GroupOptions{
		Addrs: []string{"256.256.256.256:99999"},
	}); err == nil {
		t.Error("accepted unlistenable address")
	}
	if _, err := NewGroup(2, types.Modular, GroupOptions{Addrs: []string{"127.0.0.1:0"}}); !errors.Is(err, types.ErrBadConfig) {
		t.Errorf("n != len(Addrs): %v", err)
	}
	if _, err := NewGroup(2, types.Modular, GroupOptions{Join: true}); !errors.Is(err, types.ErrBadConfig) {
		t.Errorf("Join without Addrs: %v", err)
	}
}

// TestGroupDeliveriesStream consumes the group-wide stream and checks
// per-process order and completeness.
func TestGroupDeliveriesStream(t *testing.T) {
	g, err := NewGroup(3, types.Monolithic, GroupOptions{})
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
	seen := make(map[types.ProcessID][]types.MsgID)
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
	for p := types.ProcessID(1); int(p) < g.N(); p++ {
		for i := range ref {
			if seen[p][i] != ref[i] {
				t.Fatalf("stream order diverges at %d: p0=%v p%d=%v", i, ref[i], p, seen[p][i])
			}
		}
	}
	// Close ends the stream.
	g.Close()
	if _, ok := <-sub.C(); ok {
		t.Fatal("stream yielded a value after group close and drain")
	}
}

// TestGroupStats checks the uniform Stats surface.
func TestGroupStats(t *testing.T) {
	g, err := NewGroup(3, types.Modular, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Abcast(context.Background(), 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.Stats().Total.ADeliver < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("stats: %+v", g.Stats().Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := g.Stats()
	if st.N != 3 || len(st.PerProcess) != 3 {
		t.Fatalf("stats shape: %+v", st)
	}
	if st.PerProcess[0].ABCast != 1 {
		t.Fatalf("p0 counters: %+v", st.PerProcess[0])
	}
}

// TestGroupAbcastCanceledContext checks ctx.Err() propagation through the
// group facade.
func TestGroupAbcastCanceledContext(t *testing.T) {
	g, err := NewGroup(3, types.Modular, GroupOptions{})
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
