// Package stream implements the pull-based delivery subscriptions behind
// modab.Cluster.Deliveries: a Hub fans every published value out to any
// number of Subs, each a buffered channel with an explicit overflow
// policy. Publish sends straight into each subscriber's channel, so a
// delivery crosses exactly one goroutine boundary: from the publishing
// event loop to the consumer.
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
//     wired to the cluster's StreamDropped count). For monitoring taps
//     that prefer staleness over backpressure.
//
// A subscription with buffer B holds exactly B undelivered values: the
// channel is the whole buffer, and no goroutine sits between publisher
// and consumer. Any number of publishers may publish concurrently (each
// process's event loop publishes into the one cluster hub); order is
// preserved per publisher. Closing the hub (driver shutdown) closes every
// channel after its last send, so consumers drain what is buffered and
// then see the channel closed; closing a Sub (consumer cancellation)
// releases a blocked publisher and discards what is unread. Subscribing
// to a closed hub yields a Sub whose channel is already closed, so
// "range sub.C()" terminates at once.
package stream

import (
	"slices"
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
}

// WithBuffer sets the subscription's buffer capacity (values < 1 are
// clamped to 1).
func WithBuffer(n int) SubOption {
	return func(c *subConfig) { c.buffer = n }
}

// WithPolicy sets the subscription's overflow policy.
func WithPolicy(p Policy) SubOption {
	return func(c *subConfig) { c.policy = p }
}

// Hub fans published values out to subscribers. The zero value is not
// usable; call NewHub.
type Hub[T any] struct {
	// subs is the fan-out list, replaced wholesale on change (copy-on-write)
	// so Publish reads it without a lock; mu serializes the writers.
	subs   atomic.Pointer[[]*Sub[T]]
	mu     sync.Mutex
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
	h := &Hub[T]{defBuffer: defaultBuffer, defPolicy: defaultPolicy, onDrop: onDrop}
	h.subs.Store(new([]*Sub[T]))
	return h
}

// Subscribe registers a new subscriber. Subscribing to a closed hub
// returns a subscription whose channel is already closed.
func (h *Hub[T]) Subscribe(opts ...SubOption) *Sub[T] {
	cfg := subConfig{buffer: h.defBuffer, policy: h.defPolicy}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Sub[T]{
		hub:    h,
		policy: cfg.policy,
		c:      make(chan T, max(cfg.buffer, 1)),
		quit:   make(chan struct{}),
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		s.closed = true
		close(s.c)
		return s
	}
	subs := append(slices.Clone(*h.subs.Load()), s)
	h.subs.Store(&subs)
	return s
}

// Publish fans v out to every subscriber, honoring each one's policy.
// Publishers may run concurrently; each subscription receives one
// publisher's values in that publisher's order.
func (h *Hub[T]) Publish(v T) {
	for _, s := range *h.subs.Load() {
		s.publish(v)
	}
}

// Close shuts the hub down: no further values are accepted, and every
// subscriber's channel is closed after the last value sent into it, so
// consumers drain what is buffered and then see it closed. Close waits
// for publishes in flight, including one blocked on a full Block-policy
// subscriber. Close is idempotent and safe to call concurrently with
// Publish.
func (h *Hub[T]) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := *h.subs.Swap(new([]*Sub[T]))
	h.mu.Unlock()
	for _, s := range subs {
		s.closeChan()
	}
}

// remove detaches s from the hub's fan-out list.
func (h *Hub[T]) remove(s *Sub[T]) {
	h.mu.Lock()
	defer h.mu.Unlock()
	subs := slices.DeleteFunc(slices.Clone(*h.subs.Load()), func(cur *Sub[T]) bool { return cur == s })
	h.subs.Store(&subs)
}

// Sub is one delivery subscription: a buffered channel the publishers
// send into and the consumer reads through C.
type Sub[T any] struct {
	hub    *Hub[T]
	policy Policy

	c    chan T
	quit chan struct{} // closed by Close: releases a blocked publisher
	once sync.Once

	// sendMu makes closing c race-free: every send holds it shared, and
	// closing c holds it exclusively, after which closed turns every
	// later publish into a no-op.
	sendMu sync.RWMutex
	closed bool

	dropped atomic.Int64
}

// C returns the subscription's delivery channel. It is closed after the
// hub shuts down and the buffer drains, or when Close is called — so
// "for v := range sub.C()" is the normal consumption loop.
func (s *Sub[T]) C() <-chan T { return s.c }

// Dropped returns how many values were discarded at this subscription
// under the Drop policy.
func (s *Sub[T]) Dropped() int64 { return s.dropped.Load() }

// Close cancels the subscription: it releases a publisher blocked on it,
// detaches from the hub and closes C. Buffered but unread values are
// discarded. Close is idempotent.
func (s *Sub[T]) Close() {
	s.once.Do(func() {
		close(s.quit)
		s.hub.remove(s)
		s.closeChan()
		for range s.c { // discard what is unread
		}
	})
}

// closeChan closes c once no send is in flight.
func (s *Sub[T]) closeChan() {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.c)
	}
}

// publish offers one value according to the policy. It is a no-op on a
// closed subscription.
func (s *Sub[T]) publish(v T) {
	if !s.send(v) {
		s.dropped.Add(1)
		if s.hub.onDrop != nil {
			s.hub.onDrop()
		}
	}
}

// send puts v in the channel unless the subscription is closed. Under
// Block it waits for room or for Close; under Drop it reports false when
// the buffer is full.
func (s *Sub[T]) send(v T) bool {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.closed {
		return true
	}
	select {
	case s.c <- v:
		return true
	default:
	}
	if s.policy == Drop {
		return false
	}
	select {
	case s.c <- v:
	case <-s.quit:
	}
	return true
}
