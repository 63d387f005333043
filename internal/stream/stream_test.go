package stream

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFanOutOrder(t *testing.T) {
	h := NewHub[int](8, Block, nil)
	a := h.Subscribe()
	b := h.Subscribe(WithBuffer(4))
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			h.Publish(i)
		}
		h.Close()
	}()
	// Both subscribers use the Block policy, so they must drain
	// concurrently: the publisher stalls on whichever lags.
	var wg sync.WaitGroup
	for name, sub := range map[string]*Sub[int]{"a": a, "b": b} {
		wg.Add(1)
		go func(name string, sub *Sub[int]) {
			defer wg.Done()
			i := 0
			for v := range sub.C() {
				if v != i {
					t.Errorf("%s: got %d at position %d", name, v, i)
					return
				}
				i++
			}
			if i != n {
				t.Errorf("%s: received %d of %d", name, i, n)
			}
		}(name, sub)
	}
	wg.Wait()
}

func TestBlockPolicyBackpressure(t *testing.T) {
	h := NewHub[int](1, Block, nil)
	sub := h.Subscribe()
	done := make(chan struct{})
	var published atomic.Int64
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			h.Publish(i)
			published.Add(1)
		}
	}()
	// Buffer 1 holds exactly one value: with no consumer the publisher
	// completes the first publish and stalls in the second.
	time.Sleep(50 * time.Millisecond)
	if got := published.Load(); got != 1 {
		t.Fatalf("published %d with no consumer and a one-value buffer, want 1", got)
	}
	var got []int
	for v := range sub.C() {
		got = append(got, v)
		if len(got) == 3 {
			break
		}
	}
	<-done
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("consumed %v", got)
	}
	sub.Close()
}

func TestDropPolicyCounts(t *testing.T) {
	var hubDrops atomic.Int64
	h := NewHub[int](2, Drop, func() { hubDrops.Add(1) })
	sub := h.Subscribe()
	// Nobody consumes: the buffer holds exactly two values, and every
	// later publish is dropped and counted at once.
	const n = 10
	for i := 0; i < n; i++ {
		h.Publish(i)
	}
	if sub.Dropped() != n-2 {
		t.Fatalf("dropped %d of %d with a two-value buffer, want %d", sub.Dropped(), n, n-2)
	}
	if hubDrops.Load() != sub.Dropped() {
		t.Fatalf("hub hook %d != sub dropped %d", hubDrops.Load(), sub.Dropped())
	}
	h.Close()
	var got []int
	for v := range sub.C() {
		got = append(got, v)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("drained %v, want the first two values", got)
	}
}

func TestSubscribeAfterClose(t *testing.T) {
	h := NewHub[string](4, Block, nil)
	h.Close()
	sub := h.Subscribe()
	select {
	case _, ok := <-sub.C():
		if ok {
			t.Fatal("received a value from a closed hub")
		}
	case <-time.After(time.Second):
		t.Fatal("channel of post-close subscription not closed")
	}
	sub.Close() // must be a safe no-op
}

func TestHubCloseDrainsBuffered(t *testing.T) {
	h := NewHub[int](16, Block, nil)
	sub := h.Subscribe()
	for i := 0; i < 5; i++ {
		h.Publish(i)
	}
	h.Close()
	var got []int
	for v := range sub.C() {
		got = append(got, v)
	}
	if len(got) != 5 {
		t.Fatalf("drained %d of 5 buffered values: %v", len(got), got)
	}
}

func TestSubCloseUnblocksPublisher(t *testing.T) {
	h := NewHub[int](1, Block, nil)
	sub := h.Subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			h.Publish(i)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the publisher hit the full buffer
	sub.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("publisher still blocked after subscriber closed")
	}
	if len(*h.subs.Load()) != 0 {
		t.Fatal("closed subscription still registered")
	}
	// Close discarded the buffered value and closed the channel.
	if v, ok := <-sub.C(); ok {
		t.Fatalf("read %d from a closed subscription", v)
	}
}

func TestConcurrentSubscribeCloseRace(t *testing.T) {
	h := NewHub[int](4, Drop, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Publish(i)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		sub := h.Subscribe()
		go func() {
			for range sub.C() {
			}
		}()
		sub.Close()
	}
	close(stop)
	wg.Wait()
	h.Close()
}

// TestConcurrentPublishersKeepOrder: three publishers share one Block
// subscription, as the event loops of an in-memory group share the
// cluster hub; each publisher's values arrive in its own order.
func TestConcurrentPublishersKeepOrder(t *testing.T) {
	type tagged struct{ from, i int }
	h := NewHub[tagged](4, Block, nil)
	sub := h.Subscribe()
	const pubs, n = 3, 500
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				h.Publish(tagged{p, i})
			}
		}()
	}
	go func() {
		wg.Wait()
		h.Close()
	}()
	next := make([]int, pubs)
	for v := range sub.C() {
		if v.i != next[v.from] {
			t.Fatalf("publisher %d: got %d, want %d", v.from, v.i, next[v.from])
		}
		next[v.from]++
	}
	for p, got := range next {
		if got != n {
			t.Fatalf("publisher %d: received %d of %d", p, got, n)
		}
	}
}

// TestPublishCloseRaceAccounts is the -race stress of the close paths:
// three publishers, a Sub.Close and a Hub.Close all race. Nothing may
// panic (no send races a close), every publisher returns, and at each
// subscription that is not cancelled every value whose publish finished
// before Hub.Close began was either received or counted as dropped.
func TestPublishCloseRaceAccounts(t *testing.T) {
	for round := 0; round < 200; round++ {
		h := NewHub[int](2, Block, nil)
		drop := h.Subscribe(WithPolicy(Drop))
		kept := h.Subscribe(WithBuffer(3))
		cancelled := h.Subscribe(WithBuffer(1)) // never read: Close must release its publishers

		count := func(sub *Sub[int]) <-chan int64 {
			ch := make(chan int64, 1)
			go func() {
				var n int64
				for range sub.C() {
					n++
				}
				ch <- n
			}()
			return ch
		}
		dropGot, keptGot := count(drop), count(kept)
		var published atomic.Int64
		var pubs sync.WaitGroup
		for p := 0; p < 3; p++ {
			pubs.Add(1)
			go func() {
				defer pubs.Done()
				for i := 0; i < 50; i++ {
					h.Publish(i)
					published.Add(1)
				}
			}()
		}
		go cancelled.Close()
		time.Sleep(time.Duration(round%5) * 50 * time.Microsecond)
		before := published.Load()
		h.Close()
		done := make(chan struct{})
		go func() { pubs.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: a publisher never returned", round)
		}
		total := published.Load()
		for name, got := range map[string]int64{
			"drop": <-dropGot + drop.Dropped(),
			"kept": <-keptGot,
		} {
			if got < before || got > total {
				t.Fatalf("round %d: %s subscription accounted %d values, want %d..%d", round, name, got, before, total)
			}
		}
	}
}
