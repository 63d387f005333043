package runtime

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/recovery"
	"modab/internal/transport"
	"modab/internal/types"
)

// tcpGroup starts n nodes over loopback TCP with dynamically bound ports.
func tcpGroup(t *testing.T, n int, stk types.Stack) ([]*Node, *[][]types.MsgID, *sync.Mutex) {
	t.Helper()
	// Bind all listeners on dynamic ports first, then exchange addresses.
	wildcard := make([]string, n)
	for i := range wildcard {
		wildcard[i] = "127.0.0.1:0"
	}
	trs := make([]*transport.TCP, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		tr, err := transport.NewTCP(types.ProcessID(i), wildcard)
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		addrs[i] = tr.Addr()
	}
	for _, tr := range trs {
		tr.SetAddrs(addrs)
	}
	var mu sync.Mutex
	orders := make([][]types.MsgID, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		i := i
		node, err := NewNode(Options{
			Incarnation: recovery.Incarnation{Self: types.ProcessID(i), N: n},
			Stack:       stk,
			Transport:   trs[i],
			OnDeliver: func(d engine.Delivery) {
				mu.Lock()
				orders[i] = append(orders[i], d.Msg.ID)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			if nd != nil {
				_ = nd.Close()
			}
		}
	})
	return nodes, &orders, &mu
}

func TestTCPGroupTotalOrder(t *testing.T) {
	for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
		stk := stk
		t.Run(stk.String(), func(t *testing.T) {
			const n, perProc = 3, 15
			nodes, orders, mu := tcpGroup(t, n, stk)
			var wg sync.WaitGroup
			for i, node := range nodes {
				wg.Add(1)
				go func(i int, node *Node) {
					defer wg.Done()
					for j := 0; j < perProc; j++ {
						if _, err := node.Abcast(context.Background(), []byte(fmt.Sprintf("%d-%d", i, j))); err != nil {
							t.Errorf("abcast: %v", err)
							return
						}
					}
				}(i, node)
			}
			wg.Wait()
			deadline := time.Now().Add(15 * time.Second)
			for {
				mu.Lock()
				done := true
				for _, o := range *orders {
					if len(o) < n*perProc {
						done = false
					}
				}
				mu.Unlock()
				if done {
					break
				}
				if time.Now().After(deadline) {
					mu.Lock()
					counts := []int{len((*orders)[0]), len((*orders)[1]), len((*orders)[2])}
					mu.Unlock()
					t.Fatalf("timeout; delivered %v of %d", counts, n*perProc)
				}
				time.Sleep(10 * time.Millisecond)
			}
			mu.Lock()
			defer mu.Unlock()
			ref := (*orders)[0]
			for p := 1; p < n; p++ {
				for i := range ref {
					if (*orders)[p][i] != ref[i] {
						t.Fatalf("divergence at %d", i)
					}
				}
			}
		})
	}
}

func TestTCPGroupCrashFailover(t *testing.T) {
	const n = 3
	nodes, orders, mu := tcpGroup(t, n, types.Modular)
	// Get some traffic through first.
	for j := 0; j < 5; j++ {
		if _, err := nodes[1].Abcast(context.Background(), []byte{byte(j)}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash the coordinator.
	_ = nodes[0].Close()
	nodes[0] = nil
	// Survivors must keep ordering after suspicion kicks in.
	deadline := time.Now().Add(20 * time.Second)
	delivered := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len((*orders)[1])
	}
	before := delivered()
	for j := 0; j < 5; j++ {
		if _, err := nodes[1].Abcast(context.Background(), []byte{0xF0, byte(j)}); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout submitting after crash")
		}
	}
	for delivered() < before+5 {
		if time.Now().After(deadline) {
			t.Fatalf("no progress after crash: %d of %d", delivered(), before+5)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Survivor orders agree on the common prefix.
	mu.Lock()
	defer mu.Unlock()
	o1, o2 := (*orders)[1], (*orders)[2]
	m := len(o1)
	if len(o2) < m {
		m = len(o2)
	}
	for i := 0; i < m; i++ {
		if o1[i] != o2[i] {
			t.Fatalf("survivor divergence at %d", i)
		}
	}
}

func TestNodeLifecycle(t *testing.T) {
	net := transport.NewMemNetwork()
	node, err := NewNode(Options{
		Incarnation: recovery.Incarnation{Self: 0, N: 1}, Stack: types.Monolithic,
		Transport: net.Endpoint(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.TryAbcast([]byte("solo")); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
	if _, err := node.TryAbcast([]byte("after close")); err != types.ErrStopped {
		t.Fatalf("try-abcast after close: %v", err)
	}
	if _, err := node.Abcast(context.Background(), []byte("after close")); err != types.ErrStopped {
		t.Fatalf("abcast after close: %v", err)
	}
}

func TestNodeValidation(t *testing.T) {
	net := transport.NewMemNetwork()
	if _, err := NewNode(Options{Incarnation: recovery.Incarnation{Self: 0, N: 0}, Stack: types.Modular, Transport: net.Endpoint(0)}); err == nil {
		t.Error("accepted empty group")
	}
	if _, err := NewNode(Options{Incarnation: recovery.Incarnation{Self: 0, N: 1}, Stack: types.Modular}); err == nil {
		t.Error("accepted nil transport")
	}
	if _, err := NewNode(Options{Incarnation: recovery.Incarnation{Self: 0, N: 1}, Stack: 0, Transport: net.Endpoint(1)}); err == nil {
		t.Error("accepted zero stack")
	}
}

func TestCountersExposed(t *testing.T) {
	net := transport.NewMemNetwork()
	node, err := NewNode(Options{Incarnation: recovery.Incarnation{Self: 0, N: 1}, Stack: types.Modular, Transport: net.Endpoint(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := node.Abcast(context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for node.Counters().ADeliver < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no delivery counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if node.Counters().ABCast != 1 {
		t.Fatalf("counters: %+v", node.Counters())
	}
}
