// Package transport provides the quasi-reliable point-to-point channels
// of the system model (paper §2.1): if p sends m to q and both are
// correct, q eventually receives m; per-pair delivery is FIFO.
//
// Two implementations are provided: an in-memory network for tests and
// examples, and a TCP transport for running a real group with cmd/abnode
// (length-prefixed frames over persistent connections, one writer
// goroutine per peer draining a bounded queue, frames carved from slabs).
package transport

import (
	"errors"

	"modab/internal/types"
)

// Handler consumes one inbound message. Implementations invoke it from one
// goroutine per sending peer at a time, in per-sender FIFO order: TCP runs
// one reader per inbound connection, so up to n-1 calls can be in flight
// at once, and the handler must be safe for concurrent use (the runtime
// node's is: it only appends to the node's inbox). The handler owns data
// and may retain it: the transport hands over a buffer it never modifies
// afterwards (TestHandlerOwnsFrames), so engines keep payload bodies as
// views into the frame they arrived in.
type Handler func(from types.ProcessID, data []byte)

// Transport is one process's endpoint of the group's channels.
type Transport interface {
	// Start begins delivering inbound messages to h. It must be called
	// exactly once, before any Send.
	Start(h Handler) error
	// Send transmits data to the given process without waiting on the
	// network: the in-memory network enqueues at the receiver, TCP on the
	// peer's bounded send queue, whose writer goroutine dials and writes.
	// Delivery is quasi-reliable (guaranteed only while both endpoints stay
	// up). Send must not retain data after it returns — callers reuse the
	// buffer (the runtime driver sends pooled frames), so both copy it.
	Send(to types.ProcessID, data []byte) error
	// Close stops the endpoint and releases its resources.
	Close() error
}

// Errors common to transports.
var (
	// ErrClosed is returned by operations on a closed transport.
	ErrClosed = errors.New("transport: closed")
	// ErrUnknownPeer is returned for sends to processes outside the group.
	ErrUnknownPeer = errors.New("transport: unknown peer")
	// ErrAlreadyStarted is returned by a second Start.
	ErrAlreadyStarted = errors.New("transport: already started")
	// ErrNotStarted is returned by Send before Start.
	ErrNotStarted = errors.New("transport: not started")
)
