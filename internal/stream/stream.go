// Package stream implements the pull-based delivery subscriptions behind
// runtime.Node.Deliveries and modab.Cluster.Deliveries: a Hub fans
// every published value out to any number of Subs, each with its own
// bounded buffer and an explicit overflow policy.
//
// Two policies exist, mirroring the two ways an application can lag
// behind the ordering layer:
//
//   - Block: the publisher (the protocol engine's event loop) blocks
//     until the subscriber drains — end-to-end backpressure. This is the
//     default: atomic broadcast throughput lives or dies on how ordering
//     hands batches to the application, and silently losing deliveries
//     would break state-machine replication.
//   - Drop: the value is discarded for that subscriber and counted (per
//     subscriber via Sub.Dropped, and globally via the hub's drop hook,
//     wired to trace.Counters.StreamDropped by the drivers). For
//     monitoring taps that prefer staleness over backpressure.
//
// A Sub owns one forwarding goroutine that moves values from its buffer
// to the channel returned by C. Closing the hub (driver shutdown) lets
// every subscriber drain what is already buffered and then closes their
// channels; closing a Sub (consumer cancellation) stops it immediately.
// Subscribing to a closed hub yields a Sub whose channel is already
// closed, so "range sub.C()" terminates at once.
package stream

import (
	"sync"
	"sync/atomic"
)

// Policy selects what Publish does when a subscriber's buffer is full.
type Policy int

const (
	// Block stalls the publisher until the subscriber makes room.
	Block Policy = iota
	// Drop discards the value for that subscriber and counts it.
	Drop
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	default:
		return "policy(?)"
	}
}

// DefaultBuffer is the per-subscriber buffer capacity used when a
// subscription does not specify one.
const DefaultBuffer = 256

// SubOption customizes one subscription.
type SubOption func(*subConfig)

type subConfig struct {
	buffer int
	policy Policy
	setPol bool
}

// WithBuffer sets the subscription's buffer capacity (values < 1 are
// clamped to 1).
func WithBuffer(n int) SubOption {
	return func(c *subConfig) { c.buffer = n }
}

// WithPolicy sets the subscription's overflow policy.
func WithPolicy(p Policy) SubOption {
	return func(c *subConfig) { c.policy = p; c.setPol = true }
}

// Hub fans published values out to subscribers. The zero value is not
// usable; call NewHub.
type Hub[T any] struct {
	mu     sync.Mutex
	subs   []*Sub[T] // replaced wholesale on change (copy-on-write)
	closed bool

	defBuffer int
	defPolicy Policy
	onDrop    func() // global drop hook (e.g. trace counter); may be nil
}

// NewHub creates a hub whose subscriptions default to the given buffer
// capacity and policy. onDrop, if non-nil, is invoked once per value
// dropped at any subscriber.
func NewHub[T any](defaultBuffer int, defaultPolicy Policy, onDrop func()) *Hub[T] {
	if defaultBuffer < 1 {
		defaultBuffer = DefaultBuffer
	}
	return &Hub[T]{defBuffer: defaultBuffer, defPolicy: defaultPolicy, onDrop: onDrop}
}

// Subscribe registers a new subscriber. Subscribing to a closed hub
// returns a subscription whose channel is already closed.
func (h *Hub[T]) Subscribe(opts ...SubOption) *Sub[T] {
	cfg := subConfig{buffer: h.defBuffer, policy: h.defPolicy}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.buffer < 1 {
		cfg.buffer = 1
	}
	s := &Sub[T]{
		hub:    h,
		buf:    make([]T, cfg.buffer),
		policy: cfg.policy,
		out:    make(chan T),
		quit:   make(chan struct{}),
		onDrop: h.onDrop,
	}
	s.cond = sync.NewCond(&s.mu)

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		s.closed = true
		close(s.out)
		return s
	}
	subs := make([]*Sub[T], len(h.subs)+1)
	copy(subs, h.subs)
	subs[len(h.subs)] = s
	h.subs = subs
	h.mu.Unlock()

	go s.forward()
	return s
}

// Publish fans v out to every subscriber, honoring each one's policy.
// Publishers must be externally serialized per ordering domain (the
// drivers publish from a single event loop per process), which is what
// preserves delivery order within each subscription.
func (h *Hub[T]) Publish(v T) {
	h.mu.Lock()
	subs := h.subs
	h.mu.Unlock()
	for _, s := range subs {
		s.publish(v)
	}
}

// HasSubscribers reports whether at least one subscription is active —
// a fast path so drivers can skip assembling events nobody listens to.
func (h *Hub[T]) HasSubscribers() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs) > 0
}

// Close shuts the hub down: no further values are accepted, every
// subscriber drains what is buffered and then sees its channel closed.
// Close is idempotent and safe to call concurrently with Publish.
func (h *Hub[T]) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := h.subs
	h.subs = nil
	h.mu.Unlock()
	for _, s := range subs {
		s.shutdown()
	}
}

// remove detaches s from the hub's fan-out list.
func (h *Hub[T]) remove(s *Sub[T]) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, cur := range h.subs {
		if cur == s {
			subs := make([]*Sub[T], 0, len(h.subs)-1)
			subs = append(subs, h.subs[:i]...)
			subs = append(subs, h.subs[i+1:]...)
			h.subs = subs
			return
		}
	}
}

// Sub is one delivery subscription: a bounded ring buffer between the
// publisher and the channel returned by C.
type Sub[T any] struct {
	hub    *Hub[T]
	policy Policy
	onDrop func()

	mu     sync.Mutex
	cond   *sync.Cond
	buf    []T // ring of cap(buf)
	head   int // index of oldest buffered value
	count  int
	closed bool // no further publishes are accepted

	out     chan T
	quit    chan struct{} // closed by Close (consumer cancellation)
	once    sync.Once
	dropped atomic.Int64
}

// C returns the subscription's delivery channel. It is closed after the
// hub shuts down and the buffer drains, or when Close is called — so
// "for v := range sub.C()" is the normal consumption loop.
func (s *Sub[T]) C() <-chan T { return s.out }

// Dropped returns how many values were discarded at this subscription
// under the Drop policy.
func (s *Sub[T]) Dropped() int64 { return s.dropped.Load() }

// Close cancels the subscription: it detaches from the hub, unblocks any
// stalled publisher, stops the forwarder and closes C. Buffered but
// unread values are discarded. Close is idempotent.
func (s *Sub[T]) Close() {
	s.once.Do(func() {
		s.hub.remove(s)
		s.mu.Lock()
		s.closed = true
		s.cond.Broadcast()
		s.mu.Unlock()
		close(s.quit)
	})
}

// shutdown is the hub-side close: stop accepting values but let the
// forwarder drain the buffer before closing the channel.
func (s *Sub[T]) shutdown() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// publish offers one value according to the policy. It is a no-op on a
// closed subscription.
func (s *Sub[T]) publish(v T) {
	s.mu.Lock()
	if s.policy == Block {
		for s.count == len(s.buf) && !s.closed {
			s.cond.Wait()
		}
	}
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.count == len(s.buf) { // Drop policy, full buffer
		s.mu.Unlock()
		s.dropped.Add(1)
		if s.onDrop != nil {
			s.onDrop()
		}
		return
	}
	s.buf[(s.head+s.count)%len(s.buf)] = v
	s.count++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// forward moves buffered values to the consumer channel. It is the sole
// sender on s.out, which makes closing it race-free.
func (s *Sub[T]) forward() {
	for {
		s.mu.Lock()
		for s.count == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.count == 0 { // closed and drained
			s.mu.Unlock()
			close(s.out)
			return
		}
		v := s.buf[s.head]
		var zero T
		s.buf[s.head] = zero
		s.head = (s.head + 1) % len(s.buf)
		s.count--
		s.cond.Broadcast()
		s.mu.Unlock()

		select {
		case s.out <- v:
		case <-s.quit:
			close(s.out)
			return
		}
	}
}
