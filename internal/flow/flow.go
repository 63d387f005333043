// Package flow implements the flow-control mechanism shared by both
// atomic broadcast stacks (paper §5.1): abcast is blocked whenever the
// process already has Window of its own messages in flight (abcast but not
// yet adelivered). Bounding the per-process backlog bounds the number of
// messages ordered per consensus execution — the paper tunes it so that on
// average M = 4 messages are ordered per consensus.
//
// Accounting is always at message granularity, even when sender-side
// batching makes the stacks diffuse and propose at batch granularity:
// each application message occupies one window slot from admission until
// its own adelivery, whether it crosses the wire alone or inside a batch.
// The engines widen the window to span at least two batches when batching
// is enabled (engine.Config.EffectiveWindow), so an accumulating batch
// can fill while the previous one is still being ordered.
package flow

import (
	"fmt"

	"modab/internal/types"
)

// Controller tracks the local process's in-flight abcast messages and
// assigns sequence numbers. It is driven from the engine's single event
// loop and needs no locking.
type Controller struct {
	self     types.ProcessID
	window   int
	nextSeq  uint64
	inFlight map[uint64]struct{}
}

// NewController returns a controller for the given process with the given
// window (>= 1).
func NewController(self types.ProcessID, window int) *Controller {
	if window < 1 {
		window = 1
	}
	return &Controller{
		self:     self,
		window:   window,
		inFlight: make(map[uint64]struct{}, window),
	}
}

// SetWindow resizes the window at a membership boundary (the paper's
// per-process window is derived from the group size, so adds and
// removes re-balance it). Shrinking may leave the controller
// over-committed; Admit then blocks until deliveries drain the excess,
// exactly like the post-restart Resume over-commit.
func (c *Controller) SetWindow(w int) {
	if w < 1 {
		w = 1
	}
	c.window = w
}

// InFlight returns the number of local messages abcast but not yet
// adelivered.
func (c *Controller) InFlight() int { return len(c.inFlight) }

// Resume restores the controller after a crash-recovery restart: sequence
// assignment continues at lastSeq+1 — never reusing a sequence number that
// any previous incarnation may have put on the wire — and the given
// sequence numbers (the replayed admitted-but-unordered own messages)
// re-occupy their window slots until their adeliveries release them. It
// may leave the controller over-committed when the replayed backlog
// exceeds the window; Admit then blocks until deliveries drain it.
func (c *Controller) Resume(lastSeq uint64, inFlight []uint64) {
	if lastSeq > c.nextSeq {
		c.nextSeq = lastSeq
	}
	for _, seq := range inFlight {
		c.inFlight[seq] = struct{}{}
	}
}

// Admit reserves a window slot and assigns the next message ID. It returns
// types.ErrFlowControl when the window is full.
func (c *Controller) Admit() (types.MsgID, error) {
	if len(c.inFlight) >= c.window {
		return types.MsgID{}, types.ErrFlowControl
	}
	c.nextSeq++
	c.inFlight[c.nextSeq] = struct{}{}
	return types.MsgID{Sender: c.self, Seq: c.nextSeq}, nil
}

// Delivered releases the slot held by a locally originated message when it
// is adelivered. Messages from other senders are ignored. Releasing an
// unknown local message is an error (it indicates duplicate delivery).
func (c *Controller) Delivered(id types.MsgID) error {
	if id.Sender != c.self {
		return nil
	}
	if _, ok := c.inFlight[id.Seq]; !ok {
		return fmt.Errorf("flow: release of unknown or already-delivered message %s", id)
	}
	delete(c.inFlight, id.Seq)
	return nil
}

// ReleaseDelivered releases the slot of every in-flight local message that
// delivered reports as adelivered: the catch-all for deliveries that
// bypassed Delivered because a snapshot install folded them in.
func (c *Controller) ReleaseDelivered(delivered func(id types.MsgID) bool) {
	for seq := range c.inFlight {
		if delivered(types.MsgID{Sender: c.self, Seq: seq}) {
			delete(c.inFlight, seq)
		}
	}
}
