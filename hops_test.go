package modab_test

import (
	"context"
	"maps"
	"runtime"
	"strings"
	"testing"
	"time"

	"modab"
)

// libraryGoroutines counts the live goroutines the library itself
// started, by the function whose go statement created them (the test's
// own goroutines and the runtime's timer goroutines are not counted).
func libraryGoroutines() map[string]int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]int{}
	for _, line := range strings.Split(string(buf), "\n") {
		creator, ok := strings.CutPrefix(line, "created by ")
		if !ok || !strings.HasPrefix(creator, "modab/") && !strings.HasPrefix(creator, "modab.") {
			continue
		}
		creator, _, _ = strings.Cut(creator, " in goroutine ")
		out[creator]++
	}
	return out
}

// TestDeliveryPathGoroutines is the hop ratchet: an adelivery crosses one
// goroutine boundary, from a process's event loop into the subscriber's
// channel. Subscribing starts no goroutine, and a running in-memory group
// runs one goroutine per process from each of the node (its event loop),
// the transport (its pump) and the failure detector — no stream
// forwarder and no callback adapter between engine and subscriber.
func TestDeliveryPathGoroutines(t *testing.T) {
	const n = 3
	c, err := modab.New(n, modab.Modular)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := libraryGoroutines()
	subs := []*modab.DeliveryStream{
		c.Deliveries(),
		c.Deliveries(modab.StreamBuffer(1)),
		c.Deliveries(modab.StreamOverflow(modab.OverflowDrop)),
	}
	if after := libraryGoroutines(); !maps.Equal(before, after) {
		t.Fatalf("Deliveries started goroutines: before %v, after %v", before, after)
	}
	for _, sub := range subs {
		sub.Close()
	}

	sub := c.Deliveries()
	const perProc = 20
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for p := 0; p < n; p++ {
		for j := 0; j < perProc; j++ {
			if _, err := c.Abcast(ctx, p, []byte{byte(p), byte(j)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for got := 0; got < n*n*perProc; got++ {
		select {
		case <-sub.C():
		case <-ctx.Done():
			t.Fatalf("stream delivered %d of %d", got, n*n*perProc)
		}
	}
	want := map[string]int{
		"modab/internal/runtime.NewNode":                n,
		"modab/internal/transport.(*MemEndpoint).Start": n,
		"modab/internal/fd.(*Heartbeat).Start":          n,
	}
	if got := libraryGoroutines(); !maps.Equal(got, want) {
		t.Fatalf("a delivering group runs goroutines %v, want only %v", got, want)
	}
}
