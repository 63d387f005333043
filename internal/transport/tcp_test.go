package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"modab/internal/trace"
	"modab/internal/types"
)

func nop(types.ProcessID, []byte) {}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestTCPQueuesThroughDialBackoff: frames sent to a peer whose dial failed
// wait out the backoff in its queue and arrive, in order, once the peer
// listens. (They used to be dropped with "peer in dial backoff", so a
// restarted process missed what was sent right after its restart.)
func TestTCPQueuesThroughDialBackoff(t *testing.T) {
	addrs := []string{"127.0.0.1:0", freeAddr(t)}
	t0, err := NewTCP(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	var cnt trace.Counters
	t0.SetCounters(&cnt)
	if err := t0.Start(nop); err != nil {
		t.Fatal(err)
	}
	const k = 20
	send := func(i int) {
		t.Helper()
		if err := t0.Send(1, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	send(0)
	waitUntil(t, "a refused dial", func() bool { return cnt.TransportDialFailures.Load() > 0 })
	failed := time.Now()

	// Inside the backoff the peer comes up, and more frames follow.
	var r recv
	t1, err := NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	if err := t1.Start(r.handler); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < k; i++ {
		send(i)
	}
	if d := time.Since(failed); d > dialRetry {
		t.Logf("the peer came up %v after the failed dial, past the %v backoff", d, dialRetry)
	}
	r.waitFor(t, k)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, m := range r.msgs {
		if m.from != 0 || !bytes.Equal(m.data, []byte{byte(i)}) {
			t.Fatalf("frame %d is %v from %s, want [%d] from p0", i, m.data, m.from, i)
		}
	}
}

// TestTCPConcurrentSenders: Send is called from several goroutines at once
// (the event loop, the failure detector's heartbeats, join requests). Every
// frame arrives, each sender's frames in its order.
func TestTCPConcurrentSenders(t *testing.T) {
	t0, _, _, r1 := tcpPair(t)
	const senders, k = 4, 500
	var wg sync.WaitGroup
	for g := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range k {
				if err := t0.Send(1, binary.BigEndian.AppendUint32([]byte{byte(g)}, uint32(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	r1.waitFor(t, senders*k)
	r1.mu.Lock()
	defer r1.mu.Unlock()
	var next [senders]uint32
	for _, m := range r1.msgs {
		g, i := m.data[0], binary.BigEndian.Uint32(m.data[1:])
		if i != next[g] {
			t.Fatalf("sender %d: frame %d arrived when %d was due", g, i, next[g])
		}
		next[g]++
	}
}

// acceptQueueFull returns a loopback address whose listener's accept queue
// is full and never drained, so a dial to it hangs until its timeout.
func acceptQueueFull(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := (&net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: sa.(*syscall.SockaddrInet4).Port}).String()
	c, err := net.Dial("tcp", addr) // takes the one slot of the queue
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return addr
}

// TestTCPStalledPeer: a peer that accepts and never reads, and one whose
// dial hangs, never block Send. Once both writers are stuck (one in a
// Write, one in a dial) and both queues are full, each Send returns in
// under a millisecond while 4 MiB more per peer are pushed, the queue
// stays under its cap by shedding, and Close ends every goroutine
// promptly.
func TestTCPStalledPeer(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c) // never read
		}
	}()
	t0, err := NewTCP(0, []string{"127.0.0.1:0", ln.Addr().String(), acceptQueueFull(t)})
	if err != nil {
		t.Fatal(err)
	}
	var cnt trace.Counters
	t0.SetCounters(&cnt)
	if err := t0.Start(nop); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 64<<10)
	push := func(bytes int) (slowest time.Duration) {
		for pushed := 0; pushed < bytes; pushed += len(frame) {
			for _, to := range []types.ProcessID{1, 2} {
				start := time.Now()
				if err := t0.Send(to, frame); err != nil {
					t.Fatal(err)
				}
				slowest = max(slowest, time.Since(start))
			}
		}
		return slowest
	}
	// Fill the socket buffers and both queues, then let the heap settle:
	// the timed rounds allocate nothing (a shed chunk is reused), so a
	// collection left over from the fill is not mistaken for a slow Send.
	// Nor is a descheduled test goroutine: the 4 MiB go in 1 MiB rounds,
	// and a round with a slow Send is pushed again, up to 40 rounds in all.
	// A Send that waits on a stuck writer is slow in every round.
	push(queueCap + 4<<20)
	runtime.GC()
	clean, slowest := 0, time.Duration(0)
	for round := 0; round < 40 && clean < 4; round++ {
		if d := push(1 << 20); d < time.Millisecond {
			clean++
		} else {
			slowest = max(slowest, d)
		}
	}
	if clean < 4 {
		t.Errorf("%d of 4 rounds had every Send under 1ms; the slowest Send took %v", clean, slowest)
	}
	if q := cnt.TransportQueuedBytes.Load(); q > queueCap {
		t.Errorf("%d bytes queued for one peer, over the %d cap", q, queueCap)
	}
	if cnt.TransportShedFrames.Load() == 0 {
		t.Error("no frame shed past the cap")
	}

	start := time.Now()
	if err := t0.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v with a writer blocked", d)
	}
	ln.Close()
	<-accepting
	for _, c := range held {
		c.Close()
	}
	waitUntil(t, "the goroutines to end", func() bool { return runtime.NumGoroutine() <= before })
}

// chopped is a reader that returns data in pieces whose sizes cycle
// through cuts: a cut below 128 reads that many bytes plus one, a larger
// one that many 4 KiB pages less 127; no cuts read all that fits.
type chopped struct {
	data, cuts []byte
	i          int
}

func (c *chopped) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.cuts) > 0 {
		k := int(c.cuts[c.i%len(c.cuts)])
		c.i++
		if k < 128 {
			n = min(n, k+1)
		} else {
			n = min(n, (k-127)<<12)
		}
	}
	n = copy(p, c.data[:min(n, len(c.data))])
	c.data = c.data[n:]
	return n, nil
}

// parseFrames is the reference parse of a frame stream: the complete
// frames before the end or before a header above maxFrame (tooLarge).
func parseFrames(stream []byte) (frames [][]byte, tooLarge bool) {
	for len(stream) >= 4 {
		size := binary.BigEndian.Uint32(stream)
		if size > maxFrame {
			return frames, true
		}
		if uint64(len(stream)-4) < uint64(size) {
			break
		}
		frames = append(frames, stream[4:4+size])
		stream = stream[4+size:]
	}
	return frames, false
}

// FuzzFrameReader feeds readFrames a frame stream cut at arbitrary read
// boundaries. Each 4 bytes of spec are one frame's size: one above
// maxFrame goes on the stream as a bare header, any other is taken modulo
// 1 MiB and followed by a body; the 1–3 bytes left over go on the stream
// raw, a torn header. The frames handed over must equal the reference
// parse, have no spare capacity, and never change after later reads.
func FuzzFrameReader(f *testing.F) {
	sizes := func(ns ...uint32) []byte {
		var b []byte
		for _, n := range ns {
			b = binary.BigEndian.AppendUint32(b, n)
		}
		return b
	}
	f.Add(sizes(slabSize-10, 100), []byte{200})          // straddles a slab's end
	f.Add(sizes(7, slabSize+1000, 3), []byte{255, 1, 0}) // larger than a slab
	f.Add(sizes(0, 5, 0), []byte(nil))                   // zero-length frames
	f.Add(append(sizes(10, maxFrame+1, 10), 0, 0), []byte{3})
	f.Fuzz(func(t *testing.T, spec, cuts []byte) {
		var stream []byte
		for ; len(spec) >= 4 && len(stream) < 2<<20; spec = spec[4:] {
			size := binary.BigEndian.Uint32(spec)
			if size > maxFrame {
				stream = binary.BigEndian.AppendUint32(stream, size)
				continue
			}
			size %= 1 << 20
			stream = binary.BigEndian.AppendUint32(stream, size)
			for j := range size {
				stream = append(stream, byte(len(stream)+int(j)*7))
			}
		}
		stream = append(stream, spec...)
		want, tooLarge := parseFrames(stream)

		var got, snaps [][]byte
		err := readFrames(&chopped{data: stream, cuts: cuts}, func(b []byte) {
			if cap(b) != len(b) {
				t.Fatalf("frame %d: cap %d, len %d", len(got), cap(b), len(b))
			}
			got = append(got, b)
			snaps = append(snaps, bytes.Clone(b))
		})
		if tooLarge != errors.Is(err, errFrameTooLarge) || (!tooLarge && err != io.EOF) {
			t.Fatalf("readFrames ended with %v; reference parse tooLarge=%v", err, tooLarge)
		}
		if len(got) != len(want) {
			t.Fatalf("%d frames, reference parse %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs from the reference parse", i)
			}
			if !bytes.Equal(got[i], snaps[i]) {
				t.Fatalf("frame %d changed after it was handed over", i)
			}
		}
	})
}

// TestTCPAddressRemovalRetiresPeer: taking a peer's address away (a
// removed member, gone for good) ends its writer and drops its queue, so
// its dial failures stop and its goroutine goes; Send refuses it until it
// has an address again, which starts a fresh peer.
func TestTCPAddressRemovalRetiresPeer(t *testing.T) {
	addrs := []string{"127.0.0.1:0", freeAddr(t)}
	t0, err := NewTCP(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	var cnt trace.Counters
	t0.SetCounters(&cnt)
	if err := t0.Start(nop); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if err := t0.Send(1, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "a refused dial", func() bool { return cnt.TransportDialFailures.Load() > 0 })

	t0.SetAddrs([]string{addrs[0], ""})
	waitUntil(t, "the writer to end", func() bool { return runtime.NumGoroutine() <= before })
	failures := cnt.TransportDialFailures.Load()
	time.Sleep(3 * dialRetry)
	if got := cnt.TransportDialFailures.Load(); got != failures {
		t.Fatalf("dial failures rose from %d to %d after the address went", failures, got)
	}
	if err := t0.Send(1, []byte("refused")); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("Send to a peer without an address: %v, want ErrUnknownPeer", err)
	}
	t0.mu.Lock()
	_, kept := t0.peers[1]
	t0.mu.Unlock()
	if kept {
		t.Fatal("a retired peer is still in the peer table")
	}

	t0.SetAddrs(addrs)
	if err := t0.Send(1, []byte("again")); err != nil {
		t.Fatalf("Send once the address is back: %v", err)
	}
	waitUntil(t, "a fresh peer's dial", func() bool { return cnt.TransportDialFailures.Load() > failures })
}
