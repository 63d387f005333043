// Package batch implements the sender-side batching accumulator that
// amortizes the per-message cost of modularity over many application
// messages. The paper's analysis (§5.2) shows every composed layer adds
// header bytes and handler dispatches per message; the standard remedy in
// high-throughput atomic broadcast — Ring Paxos, Chop Chop — is to pack
// many application messages into one diffusion frame and one consensus
// proposal so those fixed costs are paid once per batch instead of once
// per message.
//
// The Accumulator is a pure data structure: it never spawns goroutines,
// reads clocks, or sends. The owning protocol layer (internal/abcast for
// the modular stack, internal/monolithic for the merged one) drives it
// from its single-threaded event loop and implements the age trigger with
// the engine timer mechanism (engine.TimerFlush / the abcast layer's
// local flush timer), so batching behaves identically under the real-time
// driver and the deterministic simulator.
//
// Three triggers seal a batch:
//
//   - count: the batch reaches Config.MaxMsgs messages;
//   - bytes: appending the next message would push the encoded size past
//     Config.MaxBytes (the overflowing message starts the next batch);
//   - age: Config.MaxDelay elapsed since the batch's first message — the
//     owner's flush timer calls Flush.
package batch

import (
	"fmt"
	"time"

	"modab/internal/types"
	"modab/internal/wire"
)

// Config tunes sender-side batching. The zero value disables it.
type Config struct {
	// MaxMsgs seals a batch once it holds this many messages. Batching is
	// enabled iff MaxMsgs >= 1 (MaxMsgs == 1 degenerates to one batch per
	// message, useful for isolating the frame-format overhead).
	MaxMsgs int
	// MaxBytes seals a batch before its encoded size (wire.Batch message
	// bytes, headers included) would exceed this bound; 0 means no byte
	// cap. A single message larger than MaxBytes still forms its own
	// batch — the cap splits, it never rejects.
	MaxBytes int
	// MaxDelay bounds how long an undersized batch may wait after its
	// first message before the owner's flush timer seals it. Required
	// (> 0) when batching is enabled, or a trickle of messages below the
	// count trigger would never be diffused.
	MaxDelay time.Duration
}

// Enabled reports whether the configuration turns batching on.
func (c Config) Enabled() bool { return c.MaxMsgs > 0 }

// Validate reports whether the configuration is usable. A byte cap
// without a message cap is rejected rather than silently ignored:
// batching is enabled by MaxMsgs, and a config that sets only MaxBytes
// almost certainly expected batches to form.
func (c Config) Validate() error {
	if !c.Enabled() {
		if c.MaxBytes > 0 {
			return fmt.Errorf("%w: batch byte cap without a message cap (batching is enabled by MaxMsgs >= 1)", types.ErrBadConfig)
		}
		return nil
	}
	switch {
	case c.MaxBytes < 0:
		return fmt.Errorf("%w: negative batch byte cap", types.ErrBadConfig)
	case c.MaxDelay <= 0:
		return fmt.Errorf("%w: batching requires a positive flush delay", types.ErrBadConfig)
	default:
		return nil
	}
}

// Accumulator coalesces application messages into batches according to a
// Config. It is driven from a single goroutine (the engine event loop)
// and needs no locking.
type Accumulator struct {
	cfg   Config
	buf   wire.Batch
	bytes int
}

// NewAccumulator returns an empty accumulator for the given (enabled,
// validated) configuration.
func NewAccumulator(cfg Config) *Accumulator { return &Accumulator{cfg: cfg} }

// Len returns the number of accumulated, not-yet-sealed messages; a nil
// accumulator (batching disabled) holds none.
func (a *Accumulator) Len() int {
	if a == nil {
		return 0
	}
	return len(a.buf)
}

// TimerAction tells the owning layer what to do with its flush timer
// after an Add, so the age-trigger protocol lives here and both stacks
// only map the verdict onto their timer APIs.
type TimerAction uint8

const (
	// TimerNone leaves the flush timer as it is (the batch in progress
	// already has a running age clock).
	TimerNone TimerAction = iota
	// TimerArm (re)starts the age clock: a message just started a fresh
	// batch, which must be flushed MaxDelay from now at the latest.
	TimerArm
	// TimerCancel disarms the flush timer: the accumulator is empty, so
	// there is nothing for an age trigger to seal.
	TimerCancel
)

// Add appends m and returns the batches sealed by the count and byte
// triggers, in diffusion order (nil when m just accumulated), plus the
// flush-timer action for the owner. At most two batches come back: when
// m would overflow MaxBytes the current batch is sealed first, and m
// itself may then trip a trigger alone (MaxMsgs == 1, or a single
// message at or above MaxBytes).
func (a *Accumulator) Add(m wire.AppMsg) ([]wire.Batch, TimerAction) {
	wasEmpty := len(a.buf) == 0
	var sealed []wire.Batch
	sz := m.WireSize()
	if a.cfg.MaxBytes > 0 && len(a.buf) > 0 && a.bytes+sz > a.cfg.MaxBytes {
		sealed = append(sealed, a.Flush())
	}
	if a.buf == nil {
		a.buf = make(wire.Batch, 0, min(a.cfg.MaxMsgs, 64))
	}
	a.buf = append(a.buf, m)
	a.bytes += sz
	if len(a.buf) >= a.cfg.MaxMsgs || (a.cfg.MaxBytes > 0 && a.bytes >= a.cfg.MaxBytes) {
		sealed = append(sealed, a.Flush())
	}
	switch {
	case len(sealed) == 0 && wasEmpty:
		// First message of a fresh batch: start its age clock.
		return sealed, TimerArm
	case len(sealed) > 0 && len(a.buf) == 0:
		return sealed, TimerCancel
	case len(sealed) > 0:
		// A byte-overflow split left m as the first of a new batch.
		return sealed, TimerArm
	default:
		return sealed, TimerNone
	}
}

// Flush seals and returns whatever has accumulated, or nil when empty —
// the age-trigger path, called by the owning layer's flush timer. A flush
// timer that fires after the count trigger already sealed the batch finds
// the accumulator empty and must treat nil as "nothing to diffuse".
func (a *Accumulator) Flush() wire.Batch {
	if len(a.buf) == 0 {
		return nil
	}
	b := a.buf
	a.buf = nil
	a.bytes = 0
	return b
}
