// Package modab is a Go implementation of atomic broadcast in two
// architectures — modular (ABcast / Consensus / RBcast microprotocols
// composed as black boxes) and monolithic (the same algorithms merged
// into one module) — reproducing Rütti, Mena, Ekwall and Schiper,
// "On the Cost of Modularity in Atomic Broadcast", DSN 2007.
//
// # Quick start
//
// New builds a cluster handle for either stack; by default it runs an
// n-process group over an in-memory network inside this OS process.
// Deliveries are consumed from a pull-based stream, and submission is
// context-aware and blocks on flow control:
//
//	cluster, err := modab.New(3, modab.Modular)
//	if err != nil { ... }
//	defer cluster.Close()
//
//	sub := cluster.Deliveries()            // pull-based, per-subscriber buffer
//	go func() {
//		for ev := range sub.C() {          // identical total order at all processes
//			fmt.Printf("%s delivered %s: %q\n", ev.P, ev.D.Msg.ID, ev.D.Msg.Body)
//		}
//	}()
//
//	ctx := context.Background()
//	cluster.Abcast(ctx, 0, []byte("hello"))   // blocks on flow control, honors ctx
//
// Functional options select the transport and tune the protocol:
//
//	// One process of a group over real TCP (run one per -id):
//	modab.New(3, modab.Monolithic,
//		modab.WithTransportTCP(addrs, self),
//		modab.WithFailureDetector(25*time.Millisecond, 200*time.Millisecond))
//
//	// Protocol tunables, and a subscription that sheds deliveries
//	// instead of backpressuring the protocol when its consumer lags:
//	cluster, _ := modab.New(5, modab.Modular, modab.WithConfig(cfg))
//	sub := cluster.Deliveries(modab.StreamBuffer(1024),
//		modab.StreamOverflow(modab.OverflowDrop))
//
//	// Sender-side batching: amortize per-message layer overhead by
//	// coalescing up to 32 messages (or 64 KiB) per diffusion/proposal,
//	// flushing undersized batches after 2ms:
//	modab.New(10, modab.Modular, modab.WithBatching(32, 65536, 2*time.Millisecond))
//
//	// Consensus pipelining: keep a window of 8 instances in flight
//	// instead of waiting out each decision round-trip (depth 1 is the
//	// paper's sequential behavior):
//	modab.New(3, modab.Modular, modab.WithPipelining(8))
//
// In memory and over TCP the cluster exposes the same submission (Abcast,
// TryAbcast), the same delivery stream (Deliveries), the same membership
// operations (Add, Remove, View) and the same instrumentation (Counters,
// Stats); a process index out of range is ErrBadConfig, and a process
// that another OS process of a TCP group drives is ErrNotLocal.
// TryAbcast is the only entry point that returns ErrFlowControl;
// the blocking Abcast parks on a condition signal until the window
// drains, the context ends, or the node stops.
//
// Both stacks guarantee uniform total order under crash faults (up to a
// minority of processes) with an unreliable failure detector; the
// difference is performance, which this library measures the same way the
// paper does (see docs/BENCHMARKS.md and cmd/abbench).
//
// The packages under internal/ hold the implementation: the protocol
// engines (internal/modular, internal/monolithic, and the microprotocol
// layers they build on), the driver behind this facade (internal/core —
// the processes of a group this OS process drives, over in-memory
// channels or TCP, each an internal/runtime node), the deterministic
// discrete-event simulator the figures come from (internal/netsim, driven
// by cmd/abbench), and the measurement harness.
package modab

import (
	"context"
	"fmt"
	"time"

	"modab/internal/batch"
	"modab/internal/core"
	"modab/internal/dissem"
	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/obs"
	"modab/internal/rsm"
	"modab/internal/runtime"
	"modab/internal/stream"
	"modab/internal/trace"
	"modab/internal/types"
	"modab/internal/wal"
)

// Re-exported identifiers: the public vocabulary of the library.
type (
	// ProcessID identifies a process of the static group (0-based).
	ProcessID = types.ProcessID
	// MsgID uniquely identifies an abcast message.
	MsgID = types.MsgID
	// Stack selects the modular or monolithic implementation.
	Stack = types.Stack
	// Delivery is one adelivered message with its ordering instance.
	Delivery = engine.Delivery
	// Event is one adelivery tagged with the delivering process and the
	// driver's clock — the element of cluster-wide delivery streams.
	Event = engine.Event
	// Config carries the protocol tunables shared by both stacks.
	Config = engine.Config
	// BatchConfig tunes sender-side batching (see WithBatching and
	// Config.Batch); the zero value disables it.
	BatchConfig = batch.Config
	// Node is one running process (see Cluster.Node).
	Node = runtime.Node
	// Snapshot is an immutable copy of one process's counters.
	Snapshot = trace.Snapshot
	// Stats is the uniform whole-cluster instrumentation snapshot.
	Stats = trace.Stats
	// OverflowPolicy selects what a delivery stream does when a
	// subscriber's buffer fills: OverflowBlock or OverflowDrop.
	OverflowPolicy = stream.Policy
	// DeliveryStream is a pull-based subscription to cluster-wide
	// adeliveries; consume it with "for ev := range sub.C()".
	DeliveryStream = stream.Sub[engine.Event]
	// StreamOption tunes one subscription (see StreamBuffer,
	// StreamOverflow).
	StreamOption = stream.SubOption
	// SyncPolicy selects when write-ahead-log appends reach stable storage
	// (see WithDurability): SyncAlways, SyncInterval or SyncNone.
	SyncPolicy = wal.SyncPolicy
	// StateMachine is the replicated state machine contract
	// (Apply/Snapshot/Restore) attached with WithStateMachine; every
	// process applies the same totally ordered commands, so deterministic
	// implementations stay byte-identical across the group.
	StateMachine = rsm.StateMachine
	// SMEntry is one totally ordered command as the state machine sees it.
	SMEntry = rsm.Entry
	// Applier feeds a state machine from the delivery stream and answers
	// read-your-writes waits (see Cluster.Applier).
	Applier = rsm.Applier
	// KV is the built-in replicated key/value state machine (NewKV).
	KV = rsm.KV
	// Dissemination selects how payload frames reach the group (see
	// WithDissemination): DissemAllToAll or DissemRing.
	Dissemination = dissem.Strategy
	// ObsRecorder is one process's observability state — latency
	// histograms (submit→adeliver, apply, fsync, recovery, snapshot
	// install) plus the sampled message lifecycle tracer. Attach with
	// WithObservability, read with Cluster.Obs, serve over HTTP with
	// obs.NewHTTPHandler (see cmd/abnode -metrics).
	ObsRecorder = obs.Recorder
	// ObsHistSnapshot is an immutable, mergeable copy of one latency
	// histogram (percentiles via P50/P95/P99).
	ObsHistSnapshot = obs.HistSnapshot
	// ObsStageEvent is one recorded lifecycle point of a sampled message.
	ObsStageEvent = obs.StageEvent
	// View is one membership configuration: its epoch, the consensus
	// instance it activates at, and the member set (see Cluster.Add,
	// Cluster.Remove, Cluster.View).
	View = member.View
)

// Stack values.
const (
	// Modular composes ABcast, Consensus and RBcast as independent
	// microprotocols (paper §3).
	Modular = types.Modular
	// Monolithic merges them into a single optimized module (paper §4).
	Monolithic = types.Monolithic
)

// Dissemination values.
const (
	// DissemAllToAll has every origin broadcast its payload frames to all
	// n-1 peers itself — the paper's behavior and the default.
	DissemAllToAll = dissem.AllToAll
	// DissemRing relays payload frames along a deterministic successor
	// ring: the origin transmits each frame once, turning its O(n) egress
	// into O(1) (the coordinator-NIC bottleneck fix).
	DissemRing = dissem.Ring
)

// ParseDissemination maps the command-line spelling of a dissemination
// strategy ("all-to-all" or "ring") to its value.
func ParseDissemination(name string) (Dissemination, error) {
	return dissem.ParseStrategy(name)
}

// Write-ahead-log fsync policies (see WithDurability).
const (
	// SyncAlways fsyncs after every append: zero loss window, slowest.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs on a short background ticker: bounded loss
	// window under power failure, none under a process crash.
	SyncInterval = wal.SyncInterval
	// SyncNone leaves flushing to the OS: durable against process crashes
	// only.
	SyncNone = wal.SyncNone
)

// Overflow policies for delivery streams.
const (
	// OverflowBlock backpressures the protocol engine until the
	// subscriber drains — no delivery is ever lost. The default.
	OverflowBlock = stream.Block
	// OverflowDrop discards deliveries for the lagging subscriber and
	// counts them in Counters().StreamDropped.
	OverflowDrop = stream.Drop
)

// Errors.
var (
	// ErrFlowControl is returned by TryAbcast when the window is full. It
	// is never returned by the blocking Abcast.
	ErrFlowControl = types.ErrFlowControl
	// ErrStopped is returned by operations on a closed cluster or node.
	ErrStopped = types.ErrStopped
	// ErrCrashed is returned when submitting at a crashed process.
	ErrCrashed = types.ErrCrashed
	// ErrNotLocal is returned by a cluster on a TCP group when the target
	// process is one of the remote peers.
	ErrNotLocal = types.ErrNotLocal
	// ErrBadConfig is returned by options and operations whose
	// requirements are not met (for example Add without WithDurability).
	ErrBadConfig = types.ErrBadConfig
)

// KV result status codes (see DecodeKVResult).
const (
	// KVStatusOK means the operation succeeded.
	KVStatusOK = rsm.StatusOK
	// KVStatusMissing means the key did not exist.
	KVStatusMissing = rsm.StatusMissing
	// KVStatusCASFailed means the compare-and-swap expectation did not hold.
	KVStatusCASFailed = rsm.StatusCASFailed
	// KVStatusBadCommand means the command bytes did not decode.
	KVStatusBadCommand = rsm.StatusBadCommand
)

// NewKV returns an empty built-in key/value state machine; use it as the
// WithStateMachine factory ("func() modab.StateMachine { return
// modab.NewKV() }") and submit commands built with the KVPut family.
func NewKV() *KV { return rsm.NewKV() }

// KVPut builds a put command for the built-in KV state machine.
func KVPut(key, value []byte) []byte { return rsm.EncodePut(key, value) }

// KVDelete builds a delete command.
func KVDelete(key []byte) []byte { return rsm.EncodeDelete(key) }

// KVCAS builds a compare-and-swap command (old empty = expect absent).
func KVCAS(key, old, new []byte) []byte { return rsm.EncodeCAS(key, old, new) }

// KVGet builds an ordered (linearizable) get command.
func KVGet(key []byte) []byte { return rsm.EncodeGet(key) }

// DecodeKVResult splits a KV apply result (Applier.Await, Applier.Result)
// into its status byte and value.
func DecodeKVResult(res []byte) (status byte, value []byte) { return rsm.DecodeResult(res) }

// StreamBuffer overrides the subscription's buffer capacity.
func StreamBuffer(n int) StreamOption { return stream.WithBuffer(n) }

// StreamOverflow overrides the subscription's overflow policy.
func StreamOverflow(p OverflowPolicy) StreamOption { return stream.WithPolicy(p) }

// Option configures New.
type Option func(*settings) error

// settings accumulates the option values before the group starts. The
// group's options are filled in place; tune holds the engine config edits
// of WithBatching and friends, applied once n is known so they compose
// with WithConfig regardless of option order.
type settings struct {
	core.GroupOptions
	tune []func(*Config)
}

// WithConfig overrides the protocol tunables (flow-control window, batch
// cap, idle kick, ...). The zero value means DefaultConfig(n).
func WithConfig(cfg Config) Option {
	return func(s *settings) error {
		s.Engine = cfg
		return nil
	}
}

// WithBatching enables sender-side batching on either stack: up to
// maxMsgs application messages (or maxBytes of encoded batch, whichever
// trips first; maxBytes 0 means no byte cap) are coalesced into one
// diffusion frame and one consensus proposal, and an undersized batch is
// flushed maxDelay after its first message. Batching amortizes the
// per-message header bytes and handler dispatches that each composed
// layer costs (the price of modularity the paper measures) and widens the
// flow-control window to span two full batches while still accounting
// in-flight messages individually (Config.EffectiveWindow). Per-batch
// statistics appear in Counters (SenderBatches, SenderBatchedMsgs,
// Snapshot.MsgsPerSenderBatch, Snapshot.HeaderBytesPerMsg) and in the
// cmd/abbench table. It composes with WithConfig regardless of option
// order.
func WithBatching(maxMsgs, maxBytes int, maxDelay time.Duration) Option {
	return func(s *settings) error {
		b := BatchConfig{MaxMsgs: maxMsgs, MaxBytes: maxBytes, MaxDelay: maxDelay}
		if !b.Enabled() {
			return fmt.Errorf("%w: WithBatching requires maxMsgs >= 1", types.ErrBadConfig)
		}
		if err := b.Validate(); err != nil {
			return err
		}
		s.tune = append(s.tune, func(c *Config) { c.Batch = b })
		return nil
	}
}

// WithPipelining sets the consensus pipeline window W on either stack:
// each process keeps up to depth consensus instances in flight
// concurrently — proposing into instance k+1 (… k+W-1) while instance k's
// decision is still round-tripping — instead of the paper's strictly
// sequential one-instance-at-a-time execution. Depth 1 (and the default)
// is bit-for-bit the sequential protocol. Pipelining overlaps the
// per-instance decision latency the same way sender-side batching
// (WithBatching) amortizes the per-message cost: the two compose, and
// both stacks honor the window identically, so the modularity comparison
// stays apples-to-apples at every depth. The flow-control window is
// widened by the same factor so W instances can stay busy
// (Config.EffectiveWindow); delivery order, duplicate suppression and all
// safety properties are unchanged. Observability: Counters report
// PipelineDepthObserved and ConcurrentInstances, and cmd/abbench grows
// -pipeline and -fig pipeline. It composes with WithConfig regardless of
// option order.
func WithPipelining(depth int) Option {
	return func(s *settings) error {
		if depth < 1 {
			return fmt.Errorf("%w: WithPipelining requires depth >= 1", types.ErrBadConfig)
		}
		s.tune = append(s.tune, func(c *Config) { c.PipelineDepth = depth })
		return nil
	}
}

// WithDissemination selects how payload frames reach the group on either
// stack. DissemAllToAll (the default) is the paper's behavior: every
// origin broadcasts its diffusion frames to all n-1 peers itself, so the
// round coordinator's NIC carries O(n) copies of every proposal.
// DissemRing relays payloads along a deterministic successor ring derived
// from the membership list instead: the origin transmits each frame
// exactly once, every process forwards it to its first live successor,
// and a dedup watermark kills laps — the origin's egress becomes O(1) in
// n while consensus control traffic (proposals' votes, estimates, acks,
// decisions, recovery) stays all-to-all and the ordering black box is
// untouched. The ring repairs itself around suspected processes
// (failure-detector-driven skip plus re-spread of still-undecided
// payloads), so fault tolerance is unchanged. Observability: per-process
// egress bytes appear in Counters.PayloadBytesSent and the cmd/abbench
// -fig ring table. It composes with WithConfig regardless of option
// order.
func WithDissemination(strategy Dissemination) Option {
	return func(s *settings) error {
		if err := strategy.Validate(); err != nil {
			return fmt.Errorf("%w: WithDissemination(%d)", err, strategy)
		}
		s.tune = append(s.tune, func(c *Config) { c.Dissemination = strategy })
		return nil
	}
}

// WithDigestOrdering splits payload dissemination from ordering on either
// stack (cf. Ring Paxos / Chop Chop): the sender disseminates a batch's
// payload bytes exactly once through the dissemination seam
// (WithDissemination — announce frames travel all-to-all or around the
// ring), and consensus then orders only a compact descriptor — origin,
// incarnation-tagged batch sequence number, CRC-32C digest, message count
// — so a 1000-message batch orders as one ~32-wire-byte unit and
// proposal/estimate/ack/decision frames stop scaling with payload size.
// Adelivery of a decided descriptor blocks until its payload is resident;
// a payload lost in flight is refetched from a rotating live holder on
// the resend timer (Config.ResendEvery), and write-ahead logs store
// resolved payload batches, so recovery, state transfer and replay are
// unchanged. Flow control keeps accounting per message. Both stacks honor
// the split identically; the default (off) is bit-for-bit the payload
// ordering the golden traces pin. Observability: Counters report
// OrderedBytes, DisseminatedBytes, PayloadFetches and PayloadFetchNanos,
// the payload_fetch histogram records blocked adeliveries, and
// cmd/abbench grows -digest and -fig digest. It composes with WithConfig
// regardless of option order.
func WithDigestOrdering() Option {
	return func(s *settings) error {
		s.tune = append(s.tune, func(c *Config) { c.DigestOrdering = true })
		return nil
	}
}

// WithDurability enables the crash-recovery subsystem: every process the
// cluster drives appends its admissions and consensus decisions to a
// write-ahead log under dir before acting on them, and Cluster.Restart
// brings a crashed process back — it replays its log, announces itself,
// and fetches the decisions it missed from a live peer (state transfer)
// before resuming, with no duplicate, missed, or reordered deliveries.
//
// policy bounds the durability window: SyncAlways survives power loss,
// SyncInterval bounds the loss window to milliseconds, SyncNone survives
// process crashes only. An in-process group logs to dir/p0..p<n-1>; a TCP
// node (WithTransportTCP) logs directly to dir — give each process of the
// group its own directory.
func WithDurability(dir string, policy SyncPolicy) Option {
	return func(s *settings) error {
		s.Durability = &core.DurabilityOptions{Dir: dir, Log: wal.Options{Policy: policy}}
		return nil
	}
}

// WithStateMachine attaches a replicated state machine to every process
// the cluster drives: the factory runs once per process incarnation, and
// each replica applies the totally ordered command stream exactly once,
// synchronously in the delivery path (Cluster.Applier exposes results,
// read-your-writes waits and state digests). snapshotEvery > 0 makes each
// process snapshot its state machine every that many consensus instances;
// snapshots then serve two jobs: a restarted or far-behind process
// installs a peer's snapshot instead of replaying all history, and (with
// WithDurability) write-ahead-log segments below the snapshot horizon are
// truncated, bounding both recovery time and disk growth. snapshotEvery 0
// disables snapshotting (the state machine still applies).
func WithStateMachine(factory func() StateMachine, snapshotEvery uint64) Option {
	return func(s *settings) error {
		if factory == nil {
			return fmt.Errorf("%w: WithStateMachine requires a factory", types.ErrBadConfig)
		}
		s.StateMachine = factory
		s.SnapshotEvery = snapshotEvery
		return nil
	}
}

// WithObservability attaches the end-to-end observability layer to every
// process the cluster drives: lock-free latency histograms on the hot
// paths (abcast→adeliver, state machine apply, write-ahead-log fsync,
// recovery, snapshot install) and a lifecycle tracer that follows one in
// every sampleEvery application messages through its pipeline stages
// (accept → seal → propose → decide → adeliver → apply). sampleEvery 0
// selects the default (one in 32). Read the per-process recorders with
// Cluster.Obs; recorders survive Crash/Restart, accumulating across
// incarnations. Recording costs a few atomic adds per message on the hot
// path and never perturbs the protocol.
func WithObservability(sampleEvery uint64) Option {
	return func(s *settings) error {
		s.Observability = &obs.Config{SampleEvery: sampleEvery}
		return nil
	}
}

// WithTransportTCP makes the cluster drive one real process — self — of
// a group whose members listen on addrs (indexed by ProcessID). Start
// one cluster per process to form the group; n must equal len(addrs).
func WithTransportTCP(addrs []string, self ProcessID) Option {
	return func(s *settings) error {
		if len(addrs) == 0 {
			return fmt.Errorf("%w: WithTransportTCP requires at least one address", types.ErrBadConfig)
		}
		if self < 0 || int(self) >= len(addrs) {
			return fmt.Errorf("%w: self %d does not index addrs (len %d)", types.ErrBadConfig, self, len(addrs))
		}
		s.Addrs = addrs
		s.Self = self
		return nil
	}
}

// WithJoin marks the local TCP process as a joiner: it is not part of
// the boot group, starts with an empty restart-style state, and must be
// admitted through RequestJoin before it participates. The address
// table passed to WithTransportTCP must include the joiner's own listen
// address in its slot; the boot group is the table prefix. bootN is the
// original boot-group size — pass 0 to infer it as self (correct for
// the first joiner, whose slot extends the boot table by one); later
// joiners, whose tables already include earlier joiners, must pass it
// explicitly. TCP groups only.
func WithJoin(bootN int) Option {
	return func(s *settings) error {
		if bootN < 0 {
			return fmt.Errorf("%w: negative boot-group size", types.ErrBadConfig)
		}
		s.Join = true
		s.BootN = bootN
		return nil
	}
}

// WithFailureDetector parameterizes every process's heartbeat failure
// detector: heartbeats every period, suspicion after timeout without
// traffic.
func WithFailureDetector(period, timeout time.Duration) Option {
	return func(s *settings) error {
		if period < 0 || timeout < 0 {
			return fmt.Errorf("%w: negative failure-detector interval", types.ErrBadConfig)
		}
		s.HeartbeatPeriod = period
		s.SuspectTimeout = timeout
		return nil
	}
}

// Cluster is the facade over the processes of one group this OS process
// drives: every process over in-memory channels (the default) or one
// process of a TCP group (WithTransportTCP). Both shapes share the same
// submission, delivery-stream, membership and instrumentation surface; on
// a TCP group every per-process method answers ErrNotLocal (or a zero
// value) for the processes other OS processes drive.
type Cluster struct {
	stack Stack
	group *core.Group
}

// New builds a cluster of n processes running the given stack. With no
// options it starts the whole group in this OS process over an in-memory
// network; WithTransportTCP makes it one process of a TCP group instead.
func New(n int, stack Stack, opts ...Option) (*Cluster, error) {
	var s settings
	for _, o := range opts {
		if err := o(&s); err != nil {
			return nil, err
		}
	}
	if len(s.tune) > 0 {
		// Materialize the defaults first so the edits survive the group's
		// zero-config check, then overlay them on whatever WithConfig
		// supplied.
		if s.Engine.N == 0 {
			s.Engine = engine.DefaultConfig(n)
		}
		for _, edit := range s.tune {
			edit(&s.Engine)
		}
	}
	group, err := core.NewGroup(n, stack, s.GroupOptions)
	if err != nil {
		return nil, err
	}
	return &Cluster{stack: stack, group: group}, nil
}

// N returns the number of process slots: the boot group plus every
// joiner admitted so far (removed and crashed processes keep theirs).
func (c *Cluster) N() int { return c.group.N() }

// Stack returns the implementation under the facade.
func (c *Cluster) Stack() Stack { return c.stack }

// Abcast submits one payload for total-order broadcast at process p. It
// blocks while p's flow-control window is full — woken by a condition
// signal, not a poll — and returns ctx.Err() on cancellation or
// deadline, ErrStopped after Close, ErrCrashed at a crashed process, and
// ErrNotLocal when p is a remote peer of a TCP group.
func (c *Cluster) Abcast(ctx context.Context, p int, body []byte) (MsgID, error) {
	return c.group.Abcast(ctx, p, body)
}

// TryAbcast submits without waiting: ErrFlowControl when the window is
// full — the only entry point that returns it.
func (c *Cluster) TryAbcast(p int, body []byte) (MsgID, error) {
	return c.group.TryAbcast(p, body)
}

// Deliveries subscribes to the cluster-wide adelivery stream: every
// adelivery at every process this cluster drives, tagged with process
// and time. Per-process order is preserved. The channel closes after
// Close (subscribers drain their buffers first); a subscription taken
// after Close sees an already-closed channel.
func (c *Cluster) Deliveries(opts ...StreamOption) *DeliveryStream {
	return c.group.Deliveries(opts...)
}

// Counters returns a snapshot of process p's instrumentation. On a TCP
// group only the local process has counters; remote peers — like crashed
// processes and out-of-range indexes — read as zero.
func (c *Cluster) Counters(p int) Snapshot { return c.group.Counters(p) }

// Stats returns the uniform whole-cluster snapshot: per-process counters
// plus totals (including delivery-stream drops).
func (c *Cluster) Stats() Stats { return c.group.Stats() }

// Crash stops process p: crash-stop fault injection (survivors' failure
// detectors take over). On a TCP group it stops the local process and
// returns ErrNotLocal for a remote one.
func (c *Cluster) Crash(p int) error { return c.group.Crash(p) }

// Restart brings a crashed process back — the crash-recovery model. It
// requires WithDurability: the new incarnation replays the process's
// write-ahead log, announces itself, and fetches the decisions it missed
// from a live peer before resuming normal operation; survivors unsuspect
// it as soon as they hear from it. On a TCP group only the local process
// can be restarted (ErrNotLocal otherwise).
//
// The restarted process's Counters restart from zero — its pre-crash
// deliveries are summarized by RecoveryReplayedMsgs (ADeliver +
// RecoveryReplayedMsgs is its lifetime delivery count).
func (c *Cluster) Restart(p int) error { return c.group.Restart(p) }

// Add admits a new process to the group: an AddProcess op rides the
// total order like any message, decides in a consensus instance, and
// activates at a decided boundary — every member switches quorum size,
// failure-detector monitor set, ring successor order and retention
// accounting at exactly the same instance. Add returns the new
// process's ID (dense: the next unused one). Joins require
// WithDurability.
//
// In memory the joiner is spawned by the cluster itself (it catches up
// through snapshot install plus log-suffix state transfer) and addr must
// be omitted. On a TCP group the local node sponsors the admission of a
// process at addr — the one address argument — and every member learns
// the address from the decided op itself; the operator starts that
// process with abnode's -join flag (it may also self-request admission,
// in which case Add is not needed).
func (c *Cluster) Add(ctx context.Context, addr ...string) (ProcessID, error) {
	switch len(addr) {
	case 0:
		return c.group.Add(ctx, "")
	case 1:
		return c.group.Add(ctx, addr[0])
	}
	return 0, fmt.Errorf("%w: Add takes at most one address", ErrBadConfig)
}

// RequestJoin asks sponsor — a current member — to submit this
// process's admission, and blocks until the decided view admits us.
// The request frame is fire-and-forget (it may race the decide or be
// dropped by a connecting transport), so it is re-sent periodically
// until the view changes. TCP groups started with WithJoin only
// (ErrBadConfig otherwise).
func (c *Cluster) RequestJoin(ctx context.Context, sponsor ProcessID) error {
	return c.group.RequestJoin(ctx, sponsor)
}

// Remove retires process p from the group: a RemoveProcess op rides the
// total order, and once the view excluding p has activated everywhere
// the process is decommissioned (crashed when this cluster drives it; a
// remote peer of a TCP group is stopped by its operator). Removing an
// already-crashed process is the permanent-node-loss recovery: the
// group stops waiting for it and quorums shrink at the boundary.
func (c *Cluster) Remove(ctx context.Context, p int) error { return c.group.Remove(ctx, p) }

// View returns process p's newest locally applied membership view (the
// zero view for crashed processes, remote TCP peers, and out-of-range
// indexes).
func (c *Cluster) View(p int) View { return c.group.View(p) }

// Node returns the runtime node driving process p, or nil when p is not
// driven by this cluster (remote TCP peers, crashed processes,
// out-of-range indexes). It is the escape hatch to the lower-level API.
func (c *Cluster) Node(p int) *Node { return c.group.Node(p) }

// Applier returns process p's state machine applier: apply results,
// read-your-writes waits (Applier.Await) and canonical state digests. It
// returns nil without WithStateMachine, for remote TCP peers, and for
// crashed processes.
func (c *Cluster) Applier(p int) *Applier { return c.group.Applier(p) }

// Obs returns process p's observability recorder (latency histograms and
// the sampled lifecycle trace). It returns nil without WithObservability,
// for remote TCP peers, and for out-of-range indexes. Recorders survive
// Crash/Restart, accumulating across incarnations.
func (c *Cluster) Obs(p int) *ObsRecorder { return c.group.Obs(p) }

// Close shuts the cluster down. Delivery streams drain what is buffered
// and then close. Close is idempotent.
func (c *Cluster) Close() error { return c.group.Close() }

// DefaultConfig returns the protocol tunables used in the paper's
// evaluation for a group of n processes.
func DefaultConfig(n int) Config { return engine.DefaultConfig(n) }
