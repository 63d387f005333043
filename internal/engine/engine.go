// Package engine defines the contract between protocol implementations
// (the modular and monolithic atomic broadcast stacks) and the drivers
// that run them (the discrete-event simulator and the real-time runtime).
//
// Engines are pure, single-threaded state machines: they never spawn
// goroutines, read wall-clock time, or block. All interaction with the
// world goes through the Env interface injected at construction. This is
// what lets the exact same protocol code run deterministically under
// simulated virtual time and concurrently over real TCP connections.
package engine

import (
	"time"

	"modab/internal/batch"
	"modab/internal/dedup"
	"modab/internal/dissem"
	"modab/internal/member"
	"modab/internal/obs"
	"modab/internal/trace"
	"modab/internal/types"
	"modab/internal/wire"
)

// TimerID names a logical timer owned by an engine. Re-arming an ID
// replaces the previous deadline; firing is edge-triggered.
type TimerID int64

// Well-known timer IDs.
const (
	// TimerKick fires when no message has been received for the configured
	// idle period; the abcast layer then starts a consensus even with an
	// empty batch (paper §3.3, correctness under partial diffusion).
	TimerKick TimerID = 1
	// TimerResend drives decision-fetch retries (ct.Table.RetryFetch).
	TimerResend TimerID = 2
	// TimerFlush is the sender-side batching age trigger: it fires
	// Config.Batch.MaxDelay after the first message entered an empty
	// accumulator, sealing an undersized batch (see internal/batch).
	TimerFlush TimerID = 3
	// TimerRecover drives state-transfer retries while a restarted engine
	// is catching up on missed decisions (crash-recovery subsystem).
	TimerRecover TimerID = 4
	// TimerPayload drives digest-ordering payload re-fetch: armed while an
	// in-order decided descriptor's payload batch is not yet resident, it
	// fetches the missing bytes from one rotating live holder per fire.
	TimerPayload TimerID = 5
	// TimerJoiner re-sends the proposals of a view that admitted a member
	// to the members that have not acked them (ct.Table.ResendJoiner).
	TimerJoiner TimerID = 6
)

// Delivery is one adelivered application message together with the
// consensus instance that ordered it. Msg.Body is read-only: it may be a
// view into the frame the message arrived in, shared with the engine's
// payload store.
type Delivery struct {
	Msg      wire.AppMsg
	Instance uint64
}

// Event is one adelivery attributed to the process that performed it —
// the element type of the cluster-wide delivery stream
// (modab.Cluster.Deliveries). At is the driver's clock at delivery:
// elapsed monotonic time since the cluster started.
type Event struct {
	P  types.ProcessID
	D  Delivery
	At time.Duration
}

// Env is the world as seen by an engine. Drivers provide it; engines must
// treat it as the only side-effect channel they have.
//
// Concurrency: drivers guarantee that all Engine methods and all Env
// callbacks run on a single logical thread per process, so engines need no
// internal locking.
type Env interface {
	// Self returns the local process identifier (0-based).
	Self() types.ProcessID
	// N returns the upper bound of the process-ID space: the boot group
	// size, growing when dynamic membership admits joiners with higher
	// IDs. It is NOT the current member count — layers that need quorum
	// sizes or fan-out sets consult the decided membership view, never N.
	N() int
	// Now returns the elapsed time since the process started, in the
	// driver's clock (virtual in simulation, monotonic in real time).
	Now() time.Duration
	// Send transmits data to the given process over the quasi-reliable
	// point-to-point channel. Send never blocks and never fails; if the
	// destination has crashed the message is silently dropped (crash-stop
	// model). Send does not retain data: every driver copies it before
	// returning, so engines encode into pooled buffers and reuse them.
	Send(to types.ProcessID, data []byte)
	// SetTimer (re-)arms the timer with the given ID to fire after d.
	SetTimer(id TimerID, d time.Duration)
	// CancelTimer disarms the timer if armed.
	CancelTimer(id TimerID)
	// Deliver hands an adelivered message to the application. Drivers fan
	// deliveries out to pull-based subscriber streams; under the Block
	// overflow policy a full subscriber buffer stalls Deliver — and with
	// it the engine — which is how application backpressure reaches the
	// ordering layer. Engines must therefore treat Deliver as potentially
	// slow but must NOT assume it can re-enter the engine (it never does).
	Deliver(d Delivery)
	// Counters returns the per-process instrumentation sink.
	Counters() *trace.Counters
}

// Persister is the durable-store hook the engines write through when
// crash recovery is enabled (Config.Persist). Implementations — the
// file-backed write-ahead log (internal/wal) and netsim's in-memory
// simulated store — are injected by the drivers; a nil Persister means
// the original crash-stop model (nothing survives a crash).
//
// Write-ahead contract: PersistAdmit must complete before the admitted
// messages are first diffused, and PersistDecision before the decided
// batch is adelivered. Implementations absorb their own I/O errors by
// failing stop (a process that cannot persist must not keep running), so
// the methods return nothing and engines never branch on storage state.
type Persister interface {
	// PersistAdmit records locally admitted application messages before
	// they enter the ordering machinery.
	PersistAdmit(b wire.Batch)
	// PersistDecision records one decided consensus instance before its
	// batch is adelivered.
	PersistDecision(k uint64, b wire.Batch)
	// ReadDecision fetches a previously persisted decision, serving
	// state-transfer requests that fall behind the engine's in-memory
	// retention horizon. ok is false when the instance is unknown.
	ReadDecision(k uint64) (wire.Batch, bool)
}

// SnapshotHooks connects an engine to the driver's snapshot subsystem
// (internal/rsm). When non-nil, the engine serves snapshot state
// transfer to far-behind peers (whose missing instances were truncated
// out of every log) and installs a fetched snapshot instead of replaying
// unbounded history. The engine keeps its own consequences of an install
// — merging the envelope's dedup state and jumping its decided watermark
// — while the hooks own everything application-side: persistence,
// restoring the state machine, truncating the log.
type SnapshotHooks struct {
	// Latest returns the index of the newest durable local snapshot
	// (ok false when none exists yet).
	Latest func() (index uint64, ok bool)
	// Read returns the chunk [off, off+max) of the encoded snapshot
	// envelope at index, plus the envelope's total size. ok is false when
	// that snapshot is no longer available.
	Read func(index uint64, off, max int) (data []byte, total int, ok bool)
	// Install persists a fetched envelope locally and restores the
	// application state machine from it. Called before the engine adopts
	// the envelope's dedup state, so a failed install leaves the engine
	// unchanged.
	Install func(env wire.SnapshotEnvelope) error
	// ConfigOrdered receives every config op the engine commits, in
	// decision order: its instance k, its ID and, if it applied, the view
	// it produced. Never delivered, config ops are still covered by a
	// snapshot's dedup state and views (see wire.SnapshotEnvelope).
	ConfigOrdered func(k uint64, id types.MsgID, v member.View, applied bool)
}

// RecoveredState seeds a restarting engine with the state replayed from
// its write-ahead log (internal/recovery builds it). A nil state — or a
// fresh, empty log — means a first boot.
type RecoveredState struct {
	// NextDecide is the lowest consensus instance not yet decided locally
	// (the replayed decided watermark + 1).
	NextDecide uint64
	// Delivered is the reconstructed per-sender duplicate suppressor: the
	// engine adopts it so replayed messages are never adelivered twice.
	Delivered dedup.Map
	// Own holds this process's admitted-but-unordered messages: logged by
	// PersistAdmit but absent from every replayed decision. The engine
	// re-injects them into the ordering path after the restart.
	Own wire.Batch
	// NextSeq is the next local abcast sequence number to assign; resuming
	// above every logged sequence number is what makes a restarted
	// process's message IDs unambiguous.
	NextSeq uint64
	// ReplayedMsgs counts the adelivered messages reconstructed from the
	// log (feeds trace.Counters.RecoveryReplayedMsgs).
	ReplayedMsgs int64
	// Boots counts the previous incarnations found in the log (their boot
	// markers). Layers that stamp per-broadcast sequence numbers on the
	// wire namespace them by incarnation, so a restarted process's fresh
	// numbering is never mistaken for duplicates of its pre-crash traffic
	// (the modular rbcast needs this; see rbcast.New).
	Boots uint64
	// Views is the restored membership history, oldest first: the boot or
	// admitting view, the local snapshot's, then the log's config ops.
	Views []member.View
}

// Engine is a deterministic protocol state machine implementing atomic
// broadcast. Implementations: the modular stack (internal/modular) and the
// monolithic stack (internal/monolithic).
type Engine interface {
	// Start is invoked exactly once, after construction and before any
	// other call; engines arm their initial timers here.
	Start()
	// HandleMessage processes one inbound network message. Malformed
	// messages are dropped and reported as an error (drivers surface the
	// error in tests; production drivers count and continue). The engine
	// owns data and may retain it (views into it stay resident in the
	// payload store); the driver never modifies it afterwards.
	HandleMessage(from types.ProcessID, data []byte) error
	// HandleTimer fires a previously armed timer.
	HandleTimer(id TimerID)
	// Abcast submits an application payload for total-order broadcast.
	// It returns the assigned message ID, or types.ErrFlowControl when the
	// flow-control window is exhausted (the caller retries after
	// deliveries free the window).
	Abcast(body []byte) (types.MsgID, error)
	// Suspect updates the failure-detector output for process p.
	Suspect(p types.ProcessID, suspected bool)
	// Pending returns the number of locally known application messages
	// not yet adelivered (diagnostics and flow-control tests).
	Pending() int
}

// ConfigSubmitter is implemented by engines that support dynamic
// membership (both stacks do). SubmitConfig stamps the op with the
// engine's current epoch and submits it through the ordinary abcast
// path; the op decides like any message and activates at the decided
// boundary. Drivers type-assert for it on the Engine interface.
type ConfigSubmitter interface {
	SubmitConfig(op member.Op) (types.MsgID, error)
	// CurrentView returns the newest locally applied membership view
	// (possibly not yet activated — activation lags the decide by the
	// pipeline window).
	CurrentView() member.View
}

// Config carries the tunables shared by both stacks. The zero value is not
// valid; use DefaultConfig and override.
type Config struct {
	// N is the group size (required, >= 1).
	N int
	// Window is the per-process flow-control window: the maximum number of
	// locally abcast messages not yet adelivered. The paper's flow control
	// targets an average of M = 4 messages ordered per consensus.
	Window int
	// MaxBatch caps the number of messages packed into one consensus
	// proposal; 0 means unlimited.
	MaxBatch int
	// IdleKick is the paper's t: after this long without receiving any
	// message, a process starts a consensus even with an empty batch.
	// Zero disables the kick (useful in unit tests).
	IdleKick time.Duration
	// ResendEvery drives crash-path retransmission timers.
	ResendEvery time.Duration
	// DecisionHorizon is how many decided instances are retained for
	// catch-up retransmission before being pruned.
	DecisionHorizon int
	// ClassicRBcast makes the modular stack's reliable broadcast use the
	// classical re-send-at-every-process algorithm (≈n² messages per
	// broadcast) instead of the majority-relay optimization the paper's
	// modular stack uses. Benchmark ablation only; ignored by the
	// monolithic stack.
	ClassicRBcast bool
	// Batch configures sender-side batching: application messages are
	// coalesced at the submitting process and diffused/proposed as one
	// unit, amortizing per-message header bytes and handler dispatches.
	// The zero value disables it (one diffusion per message, the paper's
	// original behavior). Both stacks honor it identically.
	Batch batch.Config
	// Dissemination selects the payload-dissemination topology (see
	// internal/dissem): AllToAll (the zero value, the paper's original
	// behavior — golden-trace pinned) or Ring (origin sends each payload
	// frame once; successors relay; the coordinator's NIC stops being the
	// bottleneck). Control traffic — proposals as control, estimates,
	// acks, decisions, recovery, snapshots — is unaffected. Both stacks
	// honor it identically.
	Dissemination dissem.Strategy
	// DigestOrdering separates payload dissemination from ordering: the
	// sender rbcasts a batch's payload bytes exactly once (an announce
	// frame through the dissemination seam), and consensus then orders a
	// compact descriptor — (origin, incarnation-tagged batch seq, CRC
	// digest, count) — instead of the payload-carrying batch, so
	// proposal/estimate/ack/decision frames stop scaling with payload
	// size. Adelivery of a decided descriptor blocks until its payload is
	// resident (internal/payload), with a timer-driven re-fetch from a
	// rotating live holder. Off by default (the golden-trace-pinned
	// payload-ordering behavior). Both stacks honor it identically.
	DigestOrdering bool
	// PipelineDepth is the consensus pipeline window W: the maximum number
	// of consensus instances a process keeps in flight concurrently
	// instead of waiting for instance k to decide before proposing k+1.
	// 0 and 1 both mean the paper's strictly sequential behavior (and are
	// bit-identical to it); higher values overlap the decision round-trips
	// of up to W instances in both stacks. Delivery order, duplicate
	// suppression and the flow-control contract are unchanged — pipelining
	// only overlaps the wait. Both stacks honor it identically.
	PipelineDepth int
	// Persist, when non-nil, enables the crash-recovery subsystem: the
	// engine writes admissions and decisions through it ahead of acting on
	// them. Driver-injected (see internal/wal and netsim's simulated
	// store), not a user tunable.
	Persist Persister
	// Recovered, when non-nil, seeds the engine with the state replayed
	// from its durable store; the engine then performs state transfer for
	// the decisions it missed while down before resuming normal operation.
	// Driver-injected.
	Recovered *RecoveredState
	// Snapshots, when non-nil, enables snapshot state transfer: the engine
	// answers recovery requests it cannot serve from its (truncated) log
	// with its latest snapshot index, serves snapshot chunks, and installs
	// a peer snapshot when it is itself too far behind. Driver-injected
	// (see internal/rsm), not a user tunable.
	Snapshots *SnapshotHooks
	// InitialView, when non-nil, seeds the engine's membership history
	// with an explicit boot view instead of the static epoch-0 group
	// {0..N-1}. Drivers set it when spawning a joiner, whose first view
	// is the config it was admitted into, not history's beginning.
	InitialView *member.View
	// OnConfig, when non-nil, is invoked — in delivery order, while the
	// engine processes the deciding instance — each time a membership
	// change is applied locally, with the view it produced and the op
	// that produced it (op.Addr carries a joiner's transport address); a
	// view adopted from an installed snapshot comes with the zero Op.
	// Drivers use it to spawn joiners, stop removed processes, grow
	// transport address tables, and retarget failure-detector monitor
	// sets. Like Deliver, it must not re-enter the engine.
	OnConfig func(v member.View, op member.Op)
	// Obs, when non-nil, enables the observability layer: the engine
	// records latency histogram samples and sampled message lifecycle
	// stages through it, using Env.Now timestamps only — recording never
	// sends a message or arms a timer, so enabling it cannot perturb the
	// protocol trace. Driver-injected (see internal/obs), not a user
	// tunable.
	Obs *obs.Recorder
}

// DefaultWindow returns the per-process flow-control window used by both
// stacks (the paper stresses that the two implementations share the same
// flow-control mechanism). It targets a group-wide backlog of about 12
// messages; with a delivery pipeline 2-3 instances deep this orders the
// paper's M ≈ 4 messages per consensus under saturation.
func DefaultWindow(n int) int {
	if n <= 0 {
		return 1
	}
	const backlog = 12
	w := (backlog + n - 1) / n
	if w < 1 {
		w = 1
	}
	return w
}

// DefaultConfig returns the tunables used throughout the paper's
// evaluation for a group of n processes.
func DefaultConfig(n int) Config {
	return Config{
		N:               n,
		Window:          DefaultWindow(n),
		MaxBatch:        0,
		IdleKick:        50 * time.Millisecond,
		ResendEvery:     100 * time.Millisecond,
		DecisionHorizon: 128,
	}
}

// EffectivePipeline returns the consensus pipeline window the engines
// actually run: PipelineDepth, with the zero value meaning the sequential
// depth 1.
func (c Config) EffectivePipeline() int {
	if c.PipelineDepth < 1 {
		return 1
	}
	return c.PipelineDepth
}

// EffectiveWindow returns the flow-control window the engines actually
// use: Config.Window, widened to cover two full sender-side batches when
// batching is enabled, and multiplied by the pipeline depth when
// pipelining is enabled. Flow control keeps accounting in-flight messages
// at message granularity (each application message occupies one slot
// until its own adelivery); the widenings only ensure the window can span
// a batch boundary (a batch can fill while the previous one is still
// being ordered) and W concurrent consensus instances (W instances each
// ordering M messages need a W× deeper per-process backlog to stay
// busy). With the default window (≈12 messages group-wide) a 64-message
// batch — or an 8-deep pipeline — would otherwise starve.
func (c Config) EffectiveWindow() int {
	w := c.Window
	if c.Batch.Enabled() && 2*c.Batch.MaxMsgs > w {
		w = 2 * c.Batch.MaxMsgs
	}
	return w * c.EffectivePipeline()
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.N < 1:
		return types.ErrEmptyGroup
	case c.Window < 1:
		return types.ErrBadConfig
	case c.MaxBatch < 0:
		return types.ErrBadConfig
	case c.PipelineDepth < 0:
		return types.ErrBadConfig
	case c.DecisionHorizon < 1:
		return types.ErrBadConfig
	default:
		if err := c.Dissemination.Validate(); err != nil {
			return err
		}
		return c.Batch.Validate()
	}
}
