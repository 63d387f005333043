package transport

import (
	"maps"
	"sync"
	"sync/atomic"

	"modab/internal/types"
)

// MemNetwork is an in-process network connecting the endpoints of one
// group. Channels are FIFO per pair and quasi-reliable: messages to a
// closed endpoint are silently dropped (crash-stop model).
type MemNetwork struct {
	mu sync.Mutex // serializes the endpoint table's writers
	// endpoints is copied on write and published whole, so route reads
	// it without a lock.
	endpoints atomic.Pointer[map[types.ProcessID]*MemEndpoint]
}

// NewMemNetwork creates an empty in-memory network.
func NewMemNetwork() *MemNetwork {
	n := new(MemNetwork)
	n.endpoints.Store(&map[types.ProcessID]*MemEndpoint{})
	return n
}

// Endpoint returns (creating if needed) the endpoint of process id.
func (n *MemNetwork) Endpoint(id types.ProcessID) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep := (*n.endpoints.Load())[id]; ep != nil {
		return ep
	}
	return n.publish(id)
}

// Reset replaces the endpoint of process id with a fresh one — the
// transport half of a node restart (the old endpoint, closed when the
// node crashed, keeps silently dropping whatever still reaches it).
func (n *MemNetwork) Reset(id types.ProcessID) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.publish(id)
}

// publish installs a fresh endpoint for id in a new table; n.mu is held.
func (n *MemNetwork) publish(id types.ProcessID) *MemEndpoint {
	m := maps.Clone(*n.endpoints.Load())
	ep := &MemEndpoint{net: n, self: id}
	m[id] = ep
	n.endpoints.Store(&m)
	return ep
}

func (n *MemNetwork) route(from, to types.ProcessID, data []byte) {
	if dst := (*n.endpoints.Load())[to]; dst != nil {
		dst.enqueue(from, data)
	}
}

// MemEndpoint is one process's in-memory transport. It delivers inbound
// messages from a dedicated goroutine in arrival order; its receive queue
// is unbounded so senders never block (preventing event-loop deadlocks).
type MemEndpoint struct {
	net  *MemNetwork
	self types.ProcessID

	mu     sync.Mutex                    // serializes Start and Close; Send and enqueue take no lock
	inbox  atomic.Pointer[Queue[memMsg]] // nil until Start
	closed atomic.Bool
	done   chan struct{}
}

var _ Transport = (*MemEndpoint)(nil)

type memMsg struct {
	from types.ProcessID
	data []byte
}

// Start implements Transport.
func (ep *MemEndpoint) Start(h Handler) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed.Load() {
		return ErrClosed
	}
	if ep.inbox.Load() != nil {
		return ErrAlreadyStarted
	}
	inbox, done := NewQueue[memMsg](0), make(chan struct{})
	ep.done = done
	ep.inbox.Store(inbox)
	go func() {
		defer close(done)
		inbox.Run(func(m memMsg) { h(m.from, m.data) })
	}()
	return nil
}

func (ep *MemEndpoint) enqueue(from types.ProcessID, data []byte) {
	inbox := ep.inbox.Load()
	if inbox == nil {
		return
	}
	// Copy: the network must not alias sender-owned buffers.
	cp := make([]byte, len(data))
	copy(cp, data)
	inbox.Put(memMsg{from: from, data: cp}, nil) // a closed queue drops it
}

// Send implements Transport.
func (ep *MemEndpoint) Send(to types.ProcessID, data []byte) error {
	if ep.closed.Load() {
		return ErrClosed
	}
	if ep.inbox.Load() == nil {
		return ErrNotStarted
	}
	ep.net.route(ep.self, to, data)
	return nil
}

// Close implements Transport. Messages not yet handed to the handler are
// dropped; it waits for the handler call in progress to return.
func (ep *MemEndpoint) Close() error {
	ep.mu.Lock()
	if ep.closed.Swap(true) {
		ep.mu.Unlock()
		return nil
	}
	inbox, done := ep.inbox.Load(), ep.done
	ep.mu.Unlock()
	if inbox != nil {
		inbox.Close()
		<-done
	}
	return nil
}
