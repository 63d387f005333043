package transport

import (
	"sync"
	"sync/atomic"
)

// Queue is a FIFO from many producers to one consumer that drains it a
// batch at a time. A producer appends under one mutex and wakes the
// consumer only when the queue goes from empty to non-empty; the consumer
// swaps the whole queue out and hands the drained slice back for reuse, so
// a steady stream allocates nothing. A bounded queue blocks its producers
// while full: that is their backpressure. The runtime node's inbox and
// MemEndpoint's receive queue are Queues.
type Queue[T any] struct {
	limit  int           // 0: unbounded
	ready  chan struct{} // one pending wakeup; closed by Close
	closed atomic.Bool

	mu    sync.Mutex
	items []T
	room  chan struct{} // exists while a producer waits for room
}

// NewQueue returns a queue of at most limit values (0: unbounded).
func NewQueue[T any](limit int) *Queue[T] {
	return &Queue[T]{limit: limit, ready: make(chan struct{}, 1)}
}

// Put appends v, waiting while the queue is full. It drops v and returns
// false once the queue is closed, or if cancel (may be nil) fires first.
func (q *Queue[T]) Put(v T, cancel <-chan struct{}) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.limit > 0 && len(q.items) >= q.limit && !q.closed.Load() {
		if q.room == nil {
			q.room = make(chan struct{})
		}
		room := q.room
		q.mu.Unlock()
		select {
		case <-room:
		case <-cancel:
			q.mu.Lock()
			return false
		}
		q.mu.Lock()
	}
	if q.closed.Load() {
		return false
	}
	if q.items = append(q.items, v); len(q.items) == 1 {
		select {
		case q.ready <- struct{}{}:
		default: // a wakeup is already pending
		}
	}
	return true
}

// Ready receives after the queue went non-empty (sometimes spuriously),
// and is closed by Close: the consumer waits on it, then calls Take.
func (q *Queue[T]) Ready() <-chan struct{} { return q.ready }

// Take swaps out everything queued, handing buf's array to the queue for
// reuse, and lets blocked producers retry. It never blocks; ok is false
// once the queue is closed.
func (q *Queue[T]) Take(buf []T) (batch []T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	batch, q.items = q.items, buf[:0]
	q.release()
	return batch, !q.closed.Load()
}

func (q *Queue[T]) release() {
	if q.room != nil {
		close(q.room)
		q.room = nil
	}
}

// Run is the consumer: it calls fn on every value in order until Close. A
// value still queued at Close is dropped, the rest of fn's batch included.
func (q *Queue[T]) Run(fn func(T)) {
	var batch []T
	for range q.ready {
		batch, _ = q.Take(batch)
		for i := range batch {
			if q.closed.Load() {
				return
			}
			fn(batch[i])
		}
		clear(batch) // drop references to what fn was handed
	}
}

// Close drops what is queued, fails every later Put and releases blocked
// producers; Run returns once fn returns.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed.Swap(true) {
		q.items = nil
		q.release()
		close(q.ready)
	}
}
