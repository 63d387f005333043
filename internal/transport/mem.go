package transport

import (
	"sync"

	"modab/internal/types"
)

// MemNetwork is an in-process network connecting the endpoints of one
// group. Channels are FIFO per pair and quasi-reliable: messages to a
// closed endpoint are silently dropped (crash-stop model).
type MemNetwork struct {
	mu        sync.Mutex
	endpoints map[types.ProcessID]*MemEndpoint
}

// NewMemNetwork creates an empty in-memory network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{endpoints: make(map[types.ProcessID]*MemEndpoint)}
}

// Endpoint returns (creating if needed) the endpoint of process id.
func (n *MemNetwork) Endpoint(id types.ProcessID) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := n.endpoints[id]
	if ep == nil {
		ep = &MemEndpoint{net: n, self: id}
		n.endpoints[id] = ep
	}
	return ep
}

// Reset replaces the endpoint of process id with a fresh one — the
// transport half of a node restart (the old endpoint, closed when the
// node crashed, keeps silently dropping whatever still reaches it).
func (n *MemNetwork) Reset(id types.ProcessID) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := &MemEndpoint{net: n, self: id}
	n.endpoints[id] = ep
	return ep
}

func (n *MemNetwork) route(from, to types.ProcessID, data []byte) {
	n.mu.Lock()
	dst := n.endpoints[to]
	n.mu.Unlock()
	if dst != nil {
		dst.enqueue(from, data)
	}
}

// MemEndpoint is one process's in-memory transport. It delivers inbound
// messages from a dedicated goroutine in arrival order; its receive queue
// is unbounded so senders never block (preventing event-loop deadlocks).
type MemEndpoint struct {
	net  *MemNetwork
	self types.ProcessID

	mu     sync.Mutex
	inbox  *Queue[memMsg] // nil until Start
	closed bool
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
	if ep.closed {
		return ErrClosed
	}
	if ep.inbox != nil {
		return ErrAlreadyStarted
	}
	inbox, done := NewQueue[memMsg](0), make(chan struct{})
	ep.inbox, ep.done = inbox, done
	go func() {
		defer close(done)
		inbox.Run(func(m memMsg) { h(m.from, m.data) })
	}()
	return nil
}

func (ep *MemEndpoint) enqueue(from types.ProcessID, data []byte) {
	ep.mu.Lock()
	inbox := ep.inbox
	ep.mu.Unlock()
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
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return ErrClosed
	}
	if ep.inbox == nil {
		ep.mu.Unlock()
		return ErrNotStarted
	}
	ep.mu.Unlock()
	ep.net.route(ep.self, to, data)
	return nil
}

// Close implements Transport. Messages not yet handed to the handler are
// dropped; it waits for the handler call in progress to return.
func (ep *MemEndpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	inbox, done := ep.inbox, ep.done
	ep.mu.Unlock()
	if inbox != nil {
		inbox.Close()
		<-done
	}
	return nil
}
