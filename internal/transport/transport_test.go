package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"modab/internal/types"
)

// recv is a concurrency-safe message recorder.
type recv struct {
	mu   sync.Mutex
	msgs []struct {
		from types.ProcessID
		data []byte
	}
}

func (r *recv) handler(from types.ProcessID, data []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	r.msgs = append(r.msgs, struct {
		from types.ProcessID
		data []byte
	}{from, cp})
}

func (r *recv) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

func (r *recv) waitFor(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d of %d messages", r.count(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMemBasicDelivery(t *testing.T) {
	net := NewMemNetwork()
	a, b := net.Endpoint(0), net.Endpoint(1)
	var rb recv
	if err := b.Start(rb.handler); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(func(types.ProcessID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	if err := a.Send(1, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	rb.waitFor(t, 1)
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.msgs[0].from != 0 || string(rb.msgs[0].data) != "hi" {
		t.Fatalf("got %+v", rb.msgs[0])
	}
}

func TestMemFIFOPerPair(t *testing.T) {
	net := NewMemNetwork()
	a, b := net.Endpoint(0), net.Endpoint(1)
	var rb recv
	_ = b.Start(rb.handler)
	_ = a.Start(func(types.ProcessID, []byte) {})
	defer a.Close()
	defer b.Close()
	const k = 500
	for i := 0; i < k; i++ {
		if err := a.Send(1, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	rb.waitFor(t, k)
	rb.mu.Lock()
	defer rb.mu.Unlock()
	for i := 0; i < k; i++ {
		if rb.msgs[i].data[0] != byte(i) || rb.msgs[i].data[1] != byte(i>>8) {
			t.Fatalf("FIFO violated at %d", i)
		}
	}
}

func TestMemBufferNotAliased(t *testing.T) {
	net := NewMemNetwork()
	a, b := net.Endpoint(0), net.Endpoint(1)
	var rb recv
	_ = b.Start(rb.handler)
	_ = a.Start(func(types.ProcessID, []byte) {})
	defer a.Close()
	defer b.Close()
	buf := []byte{1, 2, 3}
	_ = a.Send(1, buf)
	buf[0] = 9 // mutate after send
	rb.waitFor(t, 1)
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.msgs[0].data[0] != 1 {
		t.Fatal("network aliased the sender's buffer")
	}
}

func TestMemLifecycleErrors(t *testing.T) {
	net := NewMemNetwork()
	ep := net.Endpoint(0)
	if err := ep.Send(1, nil); !errors.Is(err, ErrNotStarted) {
		t.Errorf("send before start: %v", err)
	}
	if err := ep.Start(func(types.ProcessID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Start(func(types.ProcessID, []byte) {}); !errors.Is(err, ErrAlreadyStarted) {
		t.Errorf("double start: %v", err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
	if err := ep.Send(1, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
	// Sends to a closed endpoint are silently dropped (crash-stop).
	other := net.Endpoint(1)
	_ = other.Start(func(types.ProcessID, []byte) {})
	defer other.Close()
	if err := other.Send(0, []byte("into the void")); err != nil {
		t.Errorf("send to crashed peer should not error: %v", err)
	}
}

// tcpPair builds a started two-process TCP group on loopback.
func tcpPair(t *testing.T) (*TCP, *TCP, *recv, *recv) {
	t.Helper()
	r0, r1 := &recv{}, &recv{}
	t0, t1 := tcpGroup(t, r0.handler, r1.handler)
	return t0, t1, r0, r1
}

// tcpGroup builds a started two-process TCP group on loopback whose
// processes hand inbound frames to h0 and h1.
func tcpGroup(t *testing.T, h0, h1 Handler) (*TCP, *TCP) {
	t.Helper()
	t0, err := NewTCP(0, []string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTCP(1, []string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{t0.Addr(), t1.Addr()}
	t0.SetAddrs(addrs)
	t1.SetAddrs(addrs)
	if err := t0.Start(h0); err != nil {
		t.Fatal(err)
	}
	if err := t1.Start(h1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { t0.Close(); t1.Close() })
	return t0, t1
}

func TestTCPRoundTrip(t *testing.T) {
	t0, t1, r0, r1 := tcpPair(t)
	if err := t0.Send(1, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	r1.waitFor(t, 1)
	if err := t1.Send(0, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	r0.waitFor(t, 1)
	r1.mu.Lock()
	if r1.msgs[0].from != 0 || string(r1.msgs[0].data) != "ping" {
		t.Fatalf("got %+v", r1.msgs[0])
	}
	r1.mu.Unlock()
	r0.mu.Lock()
	if r0.msgs[0].from != 1 || string(r0.msgs[0].data) != "pong" {
		t.Fatalf("got %+v", r0.msgs[0])
	}
	r0.mu.Unlock()
}

func TestTCPLargeFrame(t *testing.T) {
	t0, _, _, r1 := tcpPair(t)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := t0.Send(1, big); err != nil {
		t.Fatal(err)
	}
	r1.waitFor(t, 1)
	r1.mu.Lock()
	defer r1.mu.Unlock()
	if !bytes.Equal(r1.msgs[0].data, big) {
		t.Fatal("large frame corrupted")
	}
}

func TestTCPManyFramesFIFO(t *testing.T) {
	t0, _, _, r1 := tcpPair(t)
	const k = 200
	for i := 0; i < k; i++ {
		if err := t0.Send(1, []byte(fmt.Sprintf("m%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r1.waitFor(t, k)
	r1.mu.Lock()
	defer r1.mu.Unlock()
	for i := 0; i < k; i++ {
		if want := fmt.Sprintf("m%04d", i); string(r1.msgs[i].data) != want {
			t.Fatalf("FIFO violated at %d: %q", i, r1.msgs[i].data)
		}
	}
}

func TestTCPUnknownPeerAndLifecycle(t *testing.T) {
	t0, _, _, _ := tcpPair(t)
	if err := t0.Send(9, nil); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("unknown peer: %v", err)
	}
	if err := t0.Start(func(types.ProcessID, []byte) {}); !errors.Is(err, ErrAlreadyStarted) {
		t.Errorf("double start: %v", err)
	}
}

func TestTCPSelfIDOutOfRange(t *testing.T) {
	if _, err := NewTCP(5, []string{"127.0.0.1:0"}); err == nil {
		t.Fatal("accepted out-of-range self")
	}
}

// owner is a Handler that keeps every frame it is handed, as engines keep
// announce bodies, along with a copy taken on arrival.
type owner struct {
	mu          sync.Mutex
	held, snaps [][]byte
}

func (o *owner) handler(_ types.ProcessID, data []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.held = append(o.held, data)
	o.snaps = append(o.snaps, bytes.Clone(data))
}

func (o *owner) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.held)
}

// TestHandlerOwnsFrames pins the Handler contract engines rely on when they
// keep views into a frame: the transport never writes to a frame after
// handing it over. The receiver retains every frame; the sender refills
// one buffer for 1,000 more sends; every retained frame must still equal
// the copy taken when it arrived. Every 100th frame is larger than a TCP
// read slab, so the TCP frames span several slabs, straddle their ends and
// take buffers of their own.
func TestHandlerOwnsFrames(t *testing.T) {
	run := func(t *testing.T, send func([]byte) error, o *owner) {
		const k = 1100
		buf := make([]byte, 0, slabSize+4096)
		for i := 0; i < k; i++ {
			buf = buf[:1+i%2048]
			if i%100 == 99 {
				buf = buf[:slabSize+i]
			}
			for j := range buf {
				buf[j] = byte(i + j)
			}
			if err := send(buf); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for o.count() < k {
			if time.Now().After(deadline) {
				t.Fatalf("timeout: %d of %d frames", o.count(), k)
			}
			time.Sleep(time.Millisecond)
		}
		o.mu.Lock()
		defer o.mu.Unlock()
		for i := range o.held {
			if !bytes.Equal(o.held[i], o.snaps[i]) {
				t.Fatalf("frame %d changed after it was handed over", i)
			}
		}
	}
	t.Run("mem", func(t *testing.T) {
		net := NewMemNetwork()
		a, b := net.Endpoint(0), net.Endpoint(1)
		o := &owner{}
		_ = b.Start(o.handler)
		_ = a.Start(func(types.ProcessID, []byte) {})
		defer a.Close()
		defer b.Close()
		run(t, func(p []byte) error { return a.Send(1, p) }, o)
	})
	t.Run("tcp", func(t *testing.T) {
		o := &owner{}
		t0, _ := tcpGroup(t, func(types.ProcessID, []byte) {}, o.handler)
		run(t, func(p []byte) error { return t0.Send(1, p) }, o)
	})
}
