package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"modab/internal/trace"
	"modab/internal/types"
)

const (
	// maxFrame bounds a single TCP frame (64 MiB), matching wire.MaxChunk.
	maxFrame = 64 << 20
	// dialRetry is the backoff after a failed dial; frames sent meanwhile
	// wait in the peer's queue, and the writer re-dials when it ends.
	dialRetry   = 250 * time.Millisecond
	dialTimeout = 2 * time.Second
	// writeTimeout bounds one drain's writes. Missing it resets the
	// connection; what was drained is lost with it, and the writer re-dials.
	writeTimeout = 5 * time.Second
	// queueCap bounds the bytes queued for one peer: past it, Send sheds
	// the oldest frames (counted) a chunk at a time.
	queueCap = 8 << 20
	// slabSize is the read buffer received frames are carved from (a kept
	// frame pins its slab: read syscalls against peak heap) and the size of
	// a send queue chunk.
	slabSize = 256 << 10
)

// TCP is the TCP implementation of Transport: persistent connections with
// 4-byte length-prefixed frames. Each connection is identified by a hello
// carrying the dialer's process ID. Send only queues: each peer has one
// writer goroutine that dials, backs off and writes its queue a drain at
// a time, so no socket call ever runs on the caller's goroutine. A process
// without an address (a removed member) is no peer: see SetAddrs.
type TCP struct {
	self    types.ProcessID
	ln      net.Listener
	handler Handler
	cnt     *trace.Counters
	// ctx ends at Close; every connection closes with it (context.AfterFunc).
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	addrs   []string // addrs[i] is the listen address of process i
	started bool
	closed  bool
	peers   map[types.ProcessID]*peer
	wg      sync.WaitGroup
}

var _ Transport = (*TCP)(nil)

// peer is the send side of one outgoing connection. Its queue is a list of
// chunks, each up to a slab of whole length-prefixed frames (a larger frame
// gets a chunk of its own): queueing never grows or copies a buffer larger
// than a slab, and shedding the oldest chunk sheds the oldest frames.
type peer struct {
	wake chan struct{} // one pending wakeup
	// ctx ends at Close or when the peer loses its address, and with it
	// the writer and its connection.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	chunks [][]byte
	queued int // bytes in chunks
}

// push queues one length-prefixed frame and reports whether the queue was
// empty. A queue of queueCap/slabSize chunks sheds its oldest chunk's
// frames and reuses it for the next one.
func (p *peer) push(data []byte, cnt *trace.Counters) (wake bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	need, last := 4+len(data), len(p.chunks)-1
	if last < 0 || cap(p.chunks[last])-len(p.chunks[last]) < need {
		var c []byte
		if last+1 == queueCap/slabSize {
			c = p.chunks[0]
			for i := 0; i < len(c); i += 4 + int(binary.BigEndian.Uint32(c[i:])) {
				cnt.TransportShedFrames.Add(1)
			}
			p.chunks, p.queued, last = p.chunks[1:], p.queued-len(c), last-1
		}
		if cap(c) != slabSize || need > slabSize {
			c = make([]byte, 0, max(need, slabSize))
		}
		p.chunks, last = append(p.chunks, c[:0]), last+1
	}
	wake = p.queued == 0
	c := binary.BigEndian.AppendUint32(p.chunks[last], uint32(len(data)))
	p.chunks[last] = append(c, data...)
	p.queued += need
	trace.Raise(&cnt.TransportQueuedBytes, p.queued)
	return wake
}

// NewTCP creates a TCP transport for process self in a group whose listen
// addresses are addrs (indexed by process ID). It binds the listener
// immediately so peers can connect before Start.
func NewTCP(self types.ProcessID, addrs []string) (*TCP, error) {
	if int(self) < 0 || int(self) >= len(addrs) {
		return nil, fmt.Errorf("%w: self %d of %d", ErrUnknownPeer, self, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[self], err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &TCP{
		self:   self,
		addrs:  append([]string(nil), addrs...),
		ln:     ln,
		cnt:    new(trace.Counters),
		ctx:    ctx,
		cancel: cancel,
		peers:  make(map[types.ProcessID]*peer),
	}, nil
}

// Addr returns the bound listen address (useful with ":0" addresses).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetAddrs replaces the peer address table (used when peers bind ":0" and
// exchange addresses out of band, as the tests do, and as membership
// changes). A peer left without an address is retired: its writer ends,
// closing its connection, and its queued frames are dropped. Without that
// a peer gone for good would keep its queue until Close and re-dial every
// dialRetry.
func (t *TCP) SetAddrs(addrs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs = append([]string(nil), addrs...)
	for to, p := range t.peers {
		if int(to) >= len(t.addrs) || t.addrs[to] == "" {
			delete(t.peers, to)
			p.cancel()
			p.mu.Lock()
			p.chunks, p.queued = nil, 0
			p.mu.Unlock()
		}
	}
}

// SetCounters makes the transport count its queue gauges, shed frames and
// failed dials into c instead of a private set. Call it before Start.
func (t *TCP) SetCounters(c *trace.Counters) { t.cnt = c }

// Start implements Transport.
func (t *TCP) Start(h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if t.started {
		return ErrAlreadyStarted
	}
	t.started = true
	t.handler = h
	t.wg.Add(1)
	go t.acceptLoop()
	return nil
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

// readLoop consumes frames from one inbound connection. The first four
// bytes are the hello (the peer's ID); length-prefixed frames follow.
func (t *TCP) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer c.Close()
	defer context.AfterFunc(t.ctx, func() { c.Close() })()
	var idBuf [4]byte
	if _, err := io.ReadFull(c, idBuf[:]); err != nil {
		return
	}
	from := types.ProcessID(int32(binary.BigEndian.Uint32(idBuf[:])))
	// The address table gates outbound dials only: an inbound peer beyond
	// the table is a joiner whose admission hasn't activated here yet (its
	// address arrives with the decided OpAdd). Reject only nonsense IDs —
	// the engine's membership guard decides whether to listen to them.
	if int(from) < 0 || from == t.self {
		return
	}
	_ = readFrames(c, func(data []byte) { t.handler(from, data) }) // any error ends the connection
}

// errFrameTooLarge ends a connection whose next frame exceeds maxFrame.
var errFrameTooLarge = errors.New("transport: frame exceeds maxFrame")

// readFrames hands fn each length-prefixed frame read from r until r fails
// or announces a frame above maxFrame. One Read takes what r holds into a
// slab; each complete frame goes out as a capacity-clipped view of it, and
// a partial one at the slab's end moves to a fresh slab (or its own buffer
// if larger). A slab is never written below its fill mark nor reused, so
// fn owns what it is handed (Handler's contract).
func readFrames(r io.Reader, fn func([]byte)) error {
	slab := make([]byte, slabSize)
	lo, hi := 0, 0 // slab[lo:hi] is read but not yet handed over
	for {
		for hi-lo >= 4 {
			size := int(binary.BigEndian.Uint32(slab[lo:]))
			if size > maxFrame {
				return errFrameTooLarge
			}
			if hi-lo-4 < size {
				break
			}
			a, b := lo+4, lo+4+size
			fn(slab[a:b:b])
			lo = b
		}
		if hi == len(slab) {
			need := slabSize
			if hi-lo >= 4 {
				need = max(need, 4+int(binary.BigEndian.Uint32(slab[lo:])))
			}
			next := make([]byte, need)
			hi = copy(next, slab[lo:hi])
			slab, lo = next, 0
		}
		n, err := r.Read(slab[hi:])
		hi += n
		if err != nil {
			return err
		}
	}
}

// Send implements Transport. It appends one length-prefixed copy of data
// to the peer's queue and wakes the peer's writer, started by the first
// Send to that peer; it never touches the socket. A process without an
// address is unknown: nothing is queued for it.
func (t *TCP) Send(to types.ProcessID, data []byte) error {
	t.mu.Lock()
	// The address check reads the table under the lock: SetAddrs changes
	// it concurrently when a decided join or remove changes the group.
	if int(to) < 0 || int(to) >= len(t.addrs) || t.addrs[to] == "" {
		t.mu.Unlock()
		return ErrUnknownPeer
	}
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	if !t.started {
		t.mu.Unlock()
		return ErrNotStarted
	}
	p := t.peers[to]
	if p == nil {
		p = &peer{wake: make(chan struct{}, 1)}
		p.ctx, p.cancel = context.WithCancel(t.ctx)
		t.peers[to] = p
		t.wg.Add(1)
		go t.write(to, p)
	}
	t.mu.Unlock()

	if p.push(data, t.cnt) {
		select {
		case p.wake <- struct{}{}:
		default: // a wakeup is already pending
		}
	}
	return nil
}

// write is a peer's writer: it owns the connection, and each drain swaps
// the peer's whole queue out and writes it, one Write per chunk (one in
// all unless more than a slab's worth queued since the last drain).
func (t *TCP) write(to types.ProcessID, p *peer) {
	defer t.wg.Done()
	var (
		c     net.Conn // closed by Close through the AfterFunc
		stop  func() bool
		batch [][]byte
	)
	for {
		select {
		case <-p.wake:
		case <-p.ctx.Done():
			return
		}
		for {
			p.mu.Lock()
			idle := p.queued == 0
			if !idle && c != nil {
				// The chunk written last starts the new queue, so a steady
				// stream allocates no chunk.
				next := batch[:0]
				if len(batch) > 0 && cap(batch[0]) == slabSize {
					next = append(next, batch[0][:0])
				}
				clear(batch[len(next):])
				batch, p.chunks, p.queued = p.chunks, next, 0
			}
			p.mu.Unlock()
			if idle {
				break
			}
			if c == nil {
				if conn := t.dial(p.ctx, to); conn != nil {
					c, stop = conn, context.AfterFunc(p.ctx, func() { conn.Close() })
					continue
				}
				if p.ctx.Err() != nil {
					return
				}
				// The queue waits out the backoff; the timer re-dials.
				t.cnt.TransportDialFailures.Add(1)
				select {
				case <-time.After(dialRetry):
					continue
				case <-p.ctx.Done():
					return
				}
			}
			_ = c.SetWriteDeadline(time.Now().Add(writeTimeout)) // fails only once c is closed; Write reports that
			for _, b := range batch {
				if _, err := c.Write(b); err != nil {
					// The connection failed; what it did not carry is lost.
					stop()
					c.Close()
					c = nil
					break
				}
			}
		}
	}
}

// dial connects to a peer and says hello (our process ID); nil if it fails
// or ctx ends.
func (t *TCP) dial(ctx context.Context, to types.ProcessID) net.Conn {
	var addr string
	t.mu.Lock()
	if int(to) < len(t.addrs) {
		addr = t.addrs[to] // a retired peer's writer may still be on its way out
	}
	t.mu.Unlock()
	c, err := (&net.Dialer{Timeout: dialTimeout}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil
	}
	if _, err := c.Write(binary.BigEndian.AppendUint32(nil, uint32(t.self))); err != nil {
		c.Close()
		return nil
	}
	return c
}

// Close implements Transport. It ends every connection, the listener and
// every goroutine; frames still queued are dropped (crash-stop).
func (t *TCP) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.cancel()
	t.ln.Close()
	t.wg.Wait()
	return nil
}
