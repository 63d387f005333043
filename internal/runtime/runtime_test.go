package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/recovery"
	"modab/internal/transport"
	"modab/internal/types"
)

// group spins up n nodes over an in-memory network and records deliveries.
type group struct {
	nodes  []*Node
	mu     sync.Mutex
	orders [][]types.MsgID
}

func newGroup(t *testing.T, n int, stk types.Stack) *group {
	t.Helper()
	net := transport.NewMemNetwork()
	g := &group{orders: make([][]types.MsgID, n)}
	g.nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		i := i
		node, err := NewNode(Options{
			Incarnation: recovery.Incarnation{Self: types.ProcessID(i), N: n},
			Stack:       stk,
			Transport:   net.Endpoint(types.ProcessID(i)),
			OnDeliver: func(d engine.Delivery) {
				g.mu.Lock()
				g.orders[i] = append(g.orders[i], d.Msg.ID)
				g.mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		g.nodes[i] = node
	}
	t.Cleanup(func() {
		for _, nd := range g.nodes {
			_ = nd.Close()
		}
	})
	return g
}

// waitDelivered blocks until every node delivered want messages (or times
// out).
func (g *group) waitDelivered(t *testing.T, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		g.mu.Lock()
		done := true
		for _, o := range g.orders {
			if len(o) < want {
				done = false
			}
		}
		g.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			g.mu.Lock()
			counts := make([]int, len(g.orders))
			for i, o := range g.orders {
				counts[i] = len(o)
			}
			g.mu.Unlock()
			t.Fatalf("timeout waiting for %d deliveries; got %v", want, counts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (g *group) checkTotalOrder(t *testing.T) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	ref := g.orders[0]
	for p := 1; p < len(g.orders); p++ {
		if len(g.orders[p]) != len(ref) {
			t.Fatalf("node %d delivered %d, node 0 delivered %d", p, len(g.orders[p]), len(ref))
		}
		for i := range ref {
			if g.orders[p][i] != ref[i] {
				t.Fatalf("divergence at %d: node0=%v node%d=%v", i, ref[i], p, g.orders[p][i])
			}
		}
	}
}

func TestNodeTotalOrderMem(t *testing.T) {
	for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
		for _, n := range []int{3, 5} {
			stk, n := stk, n
			t.Run(fmt.Sprintf("%s/n=%d", stk, n), func(t *testing.T) {
				t.Parallel()
				g := newGroup(t, n, stk)
				const perProc = 20
				var wg sync.WaitGroup
				for i, node := range g.nodes {
					wg.Add(1)
					go func(i int, node *Node) {
						defer wg.Done()
						for j := 0; j < perProc; j++ {
							if _, err := node.Abcast(context.Background(), []byte(fmt.Sprintf("p%d-%d", i, j))); err != nil {
								t.Errorf("abcast: %v", err)
								return
							}
						}
					}(i, node)
				}
				wg.Wait()
				g.waitDelivered(t, n*perProc, 10*time.Second)
				g.checkTotalOrder(t)
			})
		}
	}
}

// soloStuckNode starts one node of a 3-process group whose peers never
// come up: consensus cannot reach a majority, so nothing is ever
// adelivered and the flow-control window never drains.
func soloStuckNode(t *testing.T, window int) *Node {
	t.Helper()
	net := transport.NewMemNetwork()
	cfg := engine.DefaultConfig(3)
	cfg.Window = window
	node, err := NewNode(Options{
		Incarnation: recovery.Incarnation{Self: 0, N: 3, Engine: cfg},
		Stack:       types.Modular,
		Transport:   net.Endpoint(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	return node
}

// TestTryAbcastFlowControl pins the typed-error contract: ErrFlowControl
// surfaces only from TryAbcast, never from the blocking Abcast.
func TestTryAbcastFlowControl(t *testing.T) {
	node := soloStuckNode(t, 1)
	if _, err := node.TryAbcast([]byte("a")); err != nil {
		t.Fatalf("first try-abcast: %v", err)
	}
	if _, err := node.TryAbcast([]byte("b")); !errors.Is(err, types.ErrFlowControl) {
		t.Fatalf("second try-abcast: got %v, want ErrFlowControl", err)
	}
}

// TestAbcastContextCancelMidFlowControl submits against a full window
// and checks that Abcast returns promptly with the context's error — no
// busy-wait, no hang.
func TestAbcastContextCancelMidFlowControl(t *testing.T) {
	node := soloStuckNode(t, 1)
	if _, err := node.TryAbcast([]byte("fill")); err != nil {
		t.Fatalf("fill: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := node.Abcast(ctx, []byte("blocked"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, types.ErrFlowControl) {
		t.Fatal("blocking Abcast leaked ErrFlowControl")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Abcast took %v to honor the deadline", elapsed)
	}

	// Explicit cancellation behaves the same.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel2()
	}()
	if _, err := node.Abcast(ctx2, []byte("blocked2")); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestAbcastUnblocksOnWindowRoom checks the condition-broadcast wakeup:
// a blocked Abcast proceeds as soon as an own-message delivery frees the
// window, with no polling.
func TestAbcastUnblocksOnWindowRoom(t *testing.T) {
	net := transport.NewMemNetwork()
	cfg := engine.DefaultConfig(3)
	cfg.Window = 1
	nodes := make([]*Node, 3)
	for i := range nodes {
		node, err := NewNode(Options{
			Incarnation: recovery.Incarnation{Self: types.ProcessID(i), N: 3, Engine: cfg},
			Stack:       types.Monolithic,
			Transport:   net.Endpoint(types.ProcessID(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	})
	// With Window=1, message k+1 can only be admitted after message k is
	// adelivered locally — every submission after the first must block
	// and then be woken by the delivery broadcast.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for j := 0; j < 10; j++ {
		if _, err := nodes[0].Abcast(ctx, []byte{byte(j)}); err != nil {
			t.Fatalf("abcast %d: %v", j, err)
		}
	}
}

// TestOnDeliverReachedBeforeClose checks Close's guarantee: every
// delivery the node counted has reached the OnDeliver sink by the time
// Close returns.
func TestOnDeliverReachedBeforeClose(t *testing.T) {
	net := transport.NewMemNetwork()
	var mu sync.Mutex
	var got int
	node, err := NewNode(Options{
		Incarnation: recovery.Incarnation{Self: 0, N: 1}, Stack: types.Monolithic,
		Transport: net.Endpoint(0),
		OnDeliver: func(engine.Delivery) {
			mu.Lock()
			got++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	for j := 0; j < k; j++ {
		if _, err := node.Abcast(context.Background(), []byte{byte(j)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for node.Counters().ADeliver < k {
		if time.Now().After(deadline) {
			t.Fatal("deliveries never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = node.Close()
	mu.Lock()
	defer mu.Unlock()
	if got != k {
		t.Fatalf("callback saw %d of %d after Close", got, k)
	}
}
