// Package types defines the identifiers, constants and errors shared by
// every layer of the atomic broadcast stacks.
//
// The vocabulary follows the paper "On the Cost of Modularity in Atomic
// Broadcast" (Rütti et al., DSN 2007): a static set Π = {p1..pn} of
// processes that fail only by crashing, connected by quasi-reliable
// channels, with an unreliable failure detector per process.
package types

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
)

// ProcessID identifies a process of the static group Π. IDs are dense and
// zero-based: a group of size n uses IDs 0..n-1.
type ProcessID int32

// Nobody is the zero ProcessID sentinel used where "no process" is meant.
// Valid processes are >= 0, so Nobody is deliberately negative.
const Nobody ProcessID = -1

// String implements fmt.Stringer, printing the paper's p1..pn convention.
func (p ProcessID) String() string {
	if p < 0 {
		return "p?"
	}
	return fmt.Sprintf("p%d", int32(p)+1)
}

// MsgID uniquely identifies an application message abcast by a process.
// Sender assigns Seq locally and monotonically starting at 1.
type MsgID struct {
	Sender ProcessID
	Seq    uint64
}

// String implements fmt.Stringer.
func (id MsgID) String() string { return fmt.Sprintf("%s#%d", id.Sender, id.Seq) }

// Compare orders MsgIDs first by sender then by sequence number. It is the
// deterministic order in which a decided batch is adelivered (§3.3: "in
// some deterministic order", consistent everywhere).
func (id MsgID) Compare(other MsgID) int {
	if c := cmp.Compare(id.Sender, other.Sender); c != 0 {
		return c
	}
	return cmp.Compare(id.Seq, other.Seq)
}

// Stack selects one of the two implementations under study.
type Stack int

const (
	// Modular composes ABcast, Consensus and RBcast as independent
	// microprotocols (paper §3).
	Modular Stack = iota + 1
	// Monolithic merges the three protocols into a single module, enabling
	// the cross-module optimizations of paper §4.
	Monolithic
)

// String implements fmt.Stringer.
func (s Stack) String() string {
	switch s {
	case Modular:
		return "modular"
	case Monolithic:
		return "monolithic"
	default:
		return fmt.Sprintf("stack(%d)", int(s))
	}
}

// MarshalJSON encodes the stack by name, so machine-readable benchmark
// results stay self-describing.
func (s Stack) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Majority returns the size of a strict majority of a group of n processes.
// Both consensus and the optimized reliable broadcast assume that a
// majority of processes do not crash.
func Majority(n int) int { return n/2 + 1 }

// MaxFaulty returns the maximum number of crash faults tolerated by a
// group of n processes, f = ⌈n/2⌉ - 1.
func MaxFaulty(n int) int { return (n - 1) / 2 }

// Errors shared across packages.
var (
	// ErrFlowControl is returned by Abcast when the flow-control window is
	// full; the caller must retry after deliveries drain the window.
	ErrFlowControl = errors.New("abcast blocked by flow control")
	// ErrStopped is returned when an operation is attempted on a stopped
	// node or engine.
	ErrStopped = errors.New("node is stopped")
	// ErrCrashed is returned by simulator handles after the process was
	// crashed by fault injection.
	ErrCrashed = errors.New("process has crashed")
	// ErrNotLocal is returned when an operation targets a process that is
	// not driven by this handle (e.g. a remote peer of a TCP node).
	ErrNotLocal = errors.New("process is not driven by this node")
	// ErrEmptyGroup indicates a configuration with no processes.
	ErrEmptyGroup = errors.New("group must contain at least one process")
	// ErrBadConfig indicates an invalid configuration value.
	ErrBadConfig = errors.New("invalid configuration")
)
