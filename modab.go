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
// Functional options select the driver and tune it:
//
//	// One process of a group over real TCP (run one per -id):
//	modab.New(3, modab.Monolithic,
//		modab.WithTransportTCP(addrs, self),
//		modab.WithFailureDetector(25*time.Millisecond, 200*time.Millisecond))
//
//	// The paper's deterministic discrete-event simulation:
//	modab.New(3, modab.Modular, modab.WithSimulation(42))
//
//	// Protocol tunables and delivery-stream defaults:
//	modab.New(5, modab.Modular,
//		modab.WithConfig(cfg),
//		modab.WithDeliveryBuffer(1024),
//		modab.WithDeliveryOverflow(modab.OverflowDrop))
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
// Every driver exposes the same submission (Abcast, TryAbcast), the same
// delivery stream (Deliveries) and the same instrumentation (Counters,
// Stats). TryAbcast is the only entry point that returns ErrFlowControl;
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
// layers they build on), the drivers (internal/runtime for real time over
// TCP or in-memory channels, internal/netsim for deterministic
// discrete-event simulation), and the measurement harness.
package modab

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"modab/internal/batch"
	"modab/internal/core"
	"modab/internal/dissem"
	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/netsim"
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
	// Group is an in-process group over an in-memory network.
	Group = core.Group
	// SimCluster is a deterministic simulated cluster.
	SimCluster = netsim.Cluster
	// CostModel parameterizes the simulated hardware.
	CostModel = netsim.CostModel
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
	// ErrNotLocal is returned by a TCP-driver cluster when the target
	// process is one of the remote peers.
	ErrNotLocal = types.ErrNotLocal
	// ErrStalled is returned by a simulated blocking Abcast when virtual
	// time cannot advance while the window is full.
	ErrStalled = types.ErrStalled
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

// settings accumulates the option values before driver construction.
type settings struct {
	engineCfg    Config
	tcpAddrs     []string
	tcpSelf      ProcessID
	tcp          bool
	sim          bool
	seed         int64
	model        CostModel
	hbPeriod     time.Duration
	suspectAfter time.Duration
	buffer       int
	policy       OverflowPolicy
	onDeliver    func(Event)
	batch        *BatchConfig
	pipeline     int
	dissem       *Dissemination
	digest       bool
	dur          *core.DurabilityOptions
	sm           func() rsm.StateMachine
	snapEvery    uint64
	obsCfg       *obs.Config
	join         bool
	bootN        int
}

// WithConfig overrides the protocol tunables (flow-control window, batch
// cap, idle kick, ...). The zero value means DefaultConfig(n).
func WithConfig(cfg Config) Option {
	return func(s *settings) error {
		s.engineCfg = cfg
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
		s.batch = &b
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
		s.pipeline = depth
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
		s.dissem = &strategy
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
		s.digest = true
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
// group its own directory. The simulated driver (WithSimulation) ignores
// dir and uses a deterministic in-memory durable store instead, so
// recovery scenarios replay identically under virtual time.
func WithDurability(dir string, policy SyncPolicy) Option {
	return func(s *settings) error {
		s.dur = &core.DurabilityOptions{Dir: dir, Log: wal.Options{Policy: policy}}
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
		s.sm = factory
		s.snapEvery = snapshotEvery
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
// path and never perturbs the protocol. The simulated driver records
// unconditionally (in deterministic virtual time); there this option only
// tunes the sampling period.
func WithObservability(sampleEvery uint64) Option {
	return func(s *settings) error {
		s.obsCfg = &obs.Config{SampleEvery: sampleEvery}
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
		s.tcp = true
		s.tcpAddrs = addrs
		s.tcpSelf = self
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
// explicitly. TCP driver only.
func WithJoin(bootN int) Option {
	return func(s *settings) error {
		if bootN < 0 {
			return fmt.Errorf("%w: negative boot-group size", types.ErrBadConfig)
		}
		s.join = true
		s.bootN = bootN
		return nil
	}
}

// WithSimulation runs the cluster on the deterministic discrete-event
// simulator with the given seed (same seed, same trace). Submission then
// advances virtual time: Abcast executes at the current virtual instant,
// and when blocked on flow control it steps the simulation until the
// window drains. Use Sim() for scheduled workloads and fault injection.
func WithSimulation(seed int64) Option {
	return func(s *settings) error {
		s.sim = true
		s.seed = seed
		return nil
	}
}

// WithCostModel overrides the simulated hardware model; it implies
// WithSimulation (with seed 0 unless WithSimulation is also given).
func WithCostModel(m CostModel) Option {
	return func(s *settings) error {
		s.sim = true
		s.model = m
		return nil
	}
}

// WithFailureDetector parameterizes the heartbeat failure detector of
// the real-time drivers: heartbeats every period, suspicion after
// timeout without traffic. The simulator ignores it (detection latency
// lives in the cost model's FDDetect).
func WithFailureDetector(period, timeout time.Duration) Option {
	return func(s *settings) error {
		if period < 0 || timeout < 0 {
			return fmt.Errorf("%w: negative failure-detector interval", types.ErrBadConfig)
		}
		s.hbPeriod = period
		s.suspectAfter = timeout
		return nil
	}
}

// WithDeliveryBuffer sets the default per-subscriber buffer capacity of
// Deliveries (overridable per subscription via StreamBuffer).
func WithDeliveryBuffer(k int) Option {
	return func(s *settings) error {
		if k < 1 {
			return fmt.Errorf("%w: delivery buffer must be >= 1", types.ErrBadConfig)
		}
		s.buffer = k
		return nil
	}
}

// WithDeliveryOverflow sets the default overflow policy of Deliveries
// (overridable per subscription via StreamOverflow).
func WithDeliveryOverflow(p OverflowPolicy) Option {
	return func(s *settings) error {
		s.policy = p
		return nil
	}
}

// WithOnDeliver installs a delivery callback — a convenience adapter
// over the delivery stream for applications that do not need pull-based
// consumption. Events arrive in delivery order per process.
func WithOnDeliver(fn func(Event)) Option {
	return func(s *settings) error {
		s.onDeliver = fn
		return nil
	}
}

// Cluster is the unified facade over the three drivers: an in-process
// group over in-memory channels (the default), one process of a TCP
// group (WithTransportTCP), or a simulated cluster (WithSimulation).
// All drivers share the same submission, delivery-stream and
// instrumentation surface.
type Cluster struct {
	n     int
	stack Stack

	group *core.Group // in-memory driver

	node *runtime.Node // TCP driver (one local process)
	self ProcessID
	hub  *stream.Hub[engine.Event] // TCP driver's event stream
	// tcpOpts, smFactory and onDeliver are retained so Restart can rebuild
	// the local TCP node (each incarnation gets a fresh state machine);
	// durable records whether WithDurability was given.
	tcpOpts   core.TCPNodeOptions
	smFactory func() rsm.StateMachine
	onDeliver func(Event)
	durable   bool
	// streamDropped counts drops at the TCP driver's cluster-level
	// subscriptions; Counters/Stats fold it into the local process.
	streamDropped atomic.Int64
	wg            sync.WaitGroup
	start         time.Time

	sim *netsim.Cluster // simulated driver

	mu     sync.Mutex
	closed bool
}

// New builds a cluster of n processes running the given stack. With no
// options it starts the whole group in this OS process over an in-memory
// network; see WithTransportTCP and WithSimulation for the other
// drivers.
func New(n int, stack Stack, opts ...Option) (*Cluster, error) {
	var s settings
	for _, o := range opts {
		if err := o(&s); err != nil {
			return nil, err
		}
	}
	if s.tcp && s.sim {
		return nil, fmt.Errorf("%w: WithTransportTCP and WithSimulation are mutually exclusive", types.ErrBadConfig)
	}
	if s.tcp && len(s.tcpAddrs) != n {
		return nil, fmt.Errorf("%w: n=%d but WithTransportTCP has %d addresses", types.ErrBadConfig, n, len(s.tcpAddrs))
	}
	if s.join && !s.tcp {
		return nil, fmt.Errorf("%w: WithJoin requires WithTransportTCP", types.ErrBadConfig)
	}
	if s.dur != nil && !s.sim && s.dur.Dir == "" {
		return nil, fmt.Errorf("%w: WithDurability requires a directory on the real-time drivers", types.ErrBadConfig)
	}
	if s.batch != nil || s.pipeline > 0 || s.dissem != nil || s.digest {
		// Materialize the defaults first so the batching/pipelining/
		// dissemination/digest fields survive the drivers' zero-config
		// check, then overlay them on whatever WithConfig supplied.
		if s.engineCfg.N == 0 {
			s.engineCfg = engine.DefaultConfig(n)
		}
		if s.batch != nil {
			s.engineCfg.Batch = *s.batch
		}
		if s.pipeline > 0 {
			s.engineCfg.PipelineDepth = s.pipeline
		}
		if s.dissem != nil {
			s.engineCfg.Dissemination = *s.dissem
		}
		if s.digest {
			s.engineCfg.DigestOrdering = true
		}
	}
	c := &Cluster{n: n, stack: stack, start: time.Now(), durable: s.dur != nil, onDeliver: s.onDeliver}

	switch {
	case s.sim:
		var onDeliver func(p ProcessID, d Delivery, at time.Duration)
		if fn := s.onDeliver; fn != nil {
			onDeliver = func(p ProcessID, d Delivery, at time.Duration) {
				fn(Event{P: p, D: d, At: at})
			}
		}
		sim, err := netsim.NewCluster(netsim.Options{
			N:                n,
			Stack:            stack,
			Engine:           s.engineCfg,
			Model:            s.model,
			Seed:             s.seed,
			OnDeliver:        onDeliver,
			DeliveryBuffer:   s.buffer,
			DeliveryOverflow: s.policy,
			Durable:          s.dur != nil,
			StateMachine:     s.sm,
			SnapshotEvery:    s.snapEvery,
			Obs:              simObsConfig(s.obsCfg),
		})
		if err != nil {
			return nil, err
		}
		c.sim = sim

	case s.tcp:
		c.self = s.tcpSelf
		c.smFactory = s.sm
		c.hub = stream.NewHub[engine.Event](s.buffer, s.policy,
			func() { c.streamDropped.Add(1) })
		c.tcpOpts = core.TCPNodeOptions{
			Self:             s.tcpSelf,
			Addrs:            s.tcpAddrs,
			Stack:            stack,
			Engine:           s.engineCfg,
			HeartbeatPeriod:  s.hbPeriod,
			SuspectTimeout:   s.suspectAfter,
			DeliveryBuffer:   s.buffer,
			DeliveryOverflow: s.policy,
			Durability:       s.dur,
			SnapshotEvery:    s.snapEvery,
			Join:             s.join,
			BootN:            s.bootN,
		}
		if s.obsCfg != nil {
			// The recorder lives on tcpOpts, not the node, so a restarted
			// incarnation keeps accumulating into it.
			c.tcpOpts.Obs = obs.NewRecorder(*s.obsCfg)
		}
		if c.smFactory != nil {
			c.tcpOpts.StateMachine = c.smFactory()
		}
		node, err := core.NewTCPNode(c.tcpOpts)
		if err != nil {
			return nil, err
		}
		c.node = node
		c.bridge(node)

	default:
		var onDeliver core.DeliverFunc
		if fn := s.onDeliver; fn != nil {
			onDeliver = func(p ProcessID, d Delivery) {
				fn(Event{P: p, D: d, At: time.Since(c.start)})
			}
		}
		group, err := core.NewGroup(n, stack, core.GroupOptions{
			Engine:           s.engineCfg,
			HeartbeatPeriod:  s.hbPeriod,
			SuspectTimeout:   s.suspectAfter,
			DeliveryBuffer:   s.buffer,
			DeliveryOverflow: s.policy,
			OnDeliver:        onDeliver,
			Durability:       s.dur,
			StateMachine:     s.sm,
			SnapshotEvery:    s.snapEvery,
			Observability:    s.obsCfg,
		})
		if err != nil {
			return nil, err
		}
		c.group = group
	}
	return c, nil
}

// bridge pumps one TCP node's per-process delivery stream into the
// cluster-wide event stream (and the optional callback). It does not
// close the hub when the node stops — the node may be restarted and
// bridged again; Close closes the hub after the last bridge drains.
func (c *Cluster) bridge(node *runtime.Node) {
	sub := node.Deliveries()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for d := range sub.C() {
			ev := Event{P: c.self, D: d, At: time.Since(c.start)}
			if fn := c.onDeliver; fn != nil {
				fn(ev)
			}
			c.hub.Publish(ev)
		}
	}()
}

// N returns the group size.
func (c *Cluster) N() int { return c.size() }

// tcpNode returns the TCP driver's current local node (Restart swaps it).
func (c *Cluster) tcpNode() *runtime.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.node
}

// Stack returns the implementation under the facade.
func (c *Cluster) Stack() Stack { return c.stack }

// Abcast submits one payload for total-order broadcast at process p. It
// blocks while p's flow-control window is full — woken by a condition
// signal, not a poll — and returns ctx.Err() on cancellation or
// deadline, ErrStopped after Close, ErrCrashed at a crashed process, and
// ErrNotLocal when p is a remote peer of a TCP-driver cluster. On the
// simulated driver, blocking advances virtual time step by step until
// the window drains (ErrStalled if it never can).
func (c *Cluster) Abcast(ctx context.Context, p int, body []byte) (MsgID, error) {
	switch {
	case c.sim != nil:
		return c.simAbcast(ctx, p, body, false)
	case c.hub != nil:
		if p != int(c.self) {
			return MsgID{}, fmt.Errorf("%w: p%d (local node is %s)", ErrNotLocal, p+1, c.self)
		}
		return c.tcpNode().Abcast(ctx, body)
	default:
		return c.group.Abcast(ctx, p, body)
	}
}

// TryAbcast submits without waiting: ErrFlowControl when the window is
// full — the only entry point that returns it.
func (c *Cluster) TryAbcast(p int, body []byte) (MsgID, error) {
	switch {
	case c.sim != nil:
		return c.simAbcast(context.Background(), p, body, true)
	case c.hub != nil:
		if p != int(c.self) {
			return MsgID{}, fmt.Errorf("%w: p%d (local node is %s)", ErrNotLocal, p+1, c.self)
		}
		return c.tcpNode().TryAbcast(body)
	default:
		return c.group.TryAbcast(p, body)
	}
}

// simAbcast submits at the current virtual instant. When blocking, it
// steps the simulation forward until the window frees, the context ends,
// or the event queue runs dry (ErrStalled).
func (c *Cluster) simAbcast(ctx context.Context, p int, body []byte, try bool) (MsgID, error) {
	if n := c.size(); p < 0 || p >= n {
		return MsgID{}, fmt.Errorf("%w: p%d of %d", types.ErrBadConfig, p+1, n)
	}
	for {
		var (
			id   MsgID
			rerr error
		)
		c.sim.Abcast(ProcessID(p), c.sim.Now(), body, func(i MsgID, _ time.Duration, e error) {
			id, rerr = i, e
		})
		c.sim.Run(c.sim.Now()) // execute everything due at this instant
		if try || !errors.Is(rerr, ErrFlowControl) {
			return id, rerr
		}
		if err := ctx.Err(); err != nil {
			return MsgID{}, err
		}
		// Step virtual time until something is adelivered at p — only a
		// delivery of p's own message can free the window, so retrying
		// any earlier just charges the process CPU for rejected
		// submissions that distort the simulated measurements.
		before := c.sim.Counters(ProcessID(p)).ADeliver
		for c.sim.Counters(ProcessID(p)).ADeliver == before {
			if err := ctx.Err(); err != nil {
				return MsgID{}, err
			}
			if !c.sim.Step() {
				return MsgID{}, fmt.Errorf("%w: at virtual time %v", ErrStalled, c.sim.Now())
			}
		}
	}
}

// Deliveries subscribes to the cluster-wide adelivery stream: every
// adelivery at every process this cluster drives, tagged with process
// and time. Per-process order is preserved. The channel closes after
// Close (subscribers drain their buffers first); a subscription taken
// after Close sees an already-closed channel.
func (c *Cluster) Deliveries(opts ...StreamOption) *DeliveryStream {
	switch {
	case c.sim != nil:
		return c.sim.Deliveries(opts...)
	case c.hub != nil:
		return c.hub.Subscribe(opts...)
	default:
		return c.group.Deliveries(opts...)
	}
}

// Counters returns a snapshot of process p's instrumentation. On the TCP
// driver only the local process has counters; remote peers read as zero.
func (c *Cluster) Counters(p int) Snapshot {
	switch {
	case c.sim != nil:
		return c.sim.Counters(ProcessID(p))
	case c.hub != nil:
		if p != int(c.self) {
			return Snapshot{}
		}
		snap := c.tcpNode().Counters()
		snap.StreamDropped += c.streamDropped.Load()
		return snap
	default:
		return c.group.Counters(p)
	}
}

// Stats returns the uniform whole-cluster snapshot: per-process counters
// plus totals (including delivery-stream drops).
func (c *Cluster) Stats() Stats {
	switch {
	case c.sim != nil:
		return c.sim.Stats()
	case c.hub != nil:
		n := c.size()
		st := Stats{N: n, PerProcess: make([]Snapshot, n)}
		st.PerProcess[c.self] = c.Counters(int(c.self))
		st.Total = st.PerProcess[c.self]
		return st
	default:
		return c.group.Stats()
	}
}

// Crash stops process p: crash-stop fault injection on the in-memory and
// simulated drivers (survivors' failure detectors take over). On the TCP
// driver it closes the local node when p is local and returns ErrNotLocal
// otherwise.
func (c *Cluster) Crash(p int) error {
	switch {
	case c.sim != nil:
		c.sim.Crash(ProcessID(p), c.sim.Now())
		c.sim.Run(c.sim.Now())
		return nil
	case c.hub != nil:
		if p != int(c.self) {
			return fmt.Errorf("%w: p%d (local node is %s)", ErrNotLocal, p+1, c.self)
		}
		return c.tcpNode().Close()
	default:
		return c.group.Crash(p)
	}
}

// Restart brings a crashed process back — the crash-recovery model. It
// requires WithDurability: the new incarnation replays the process's
// write-ahead log (or the simulated durable store), announces itself, and
// fetches the decisions it missed from a live peer before resuming
// normal operation; survivors unsuspect it as soon as they hear from it.
// On the TCP driver only the local process can be restarted
// (ErrNotLocal otherwise); on the simulated driver the restart happens at
// the current virtual instant.
//
// Counters after a restart: the simulated driver accumulates across
// incarnations, while on the real-time drivers the restarted process's
// Counters restart from zero — its pre-crash deliveries are summarized
// by RecoveryReplayedMsgs (ADeliver + RecoveryReplayedMsgs is its
// lifetime delivery count).
func (c *Cluster) Restart(p int) error {
	if !c.durable {
		return fmt.Errorf("%w: Restart requires WithDurability", types.ErrBadConfig)
	}
	if n := c.size(); p < 0 || p >= n {
		return fmt.Errorf("%w: p%d of %d", types.ErrBadConfig, p+1, n)
	}
	switch {
	case c.sim != nil:
		c.sim.Restart(ProcessID(p), c.sim.Now())
		c.sim.Run(c.sim.Now())
		return nil
	case c.hub != nil:
		if p != int(c.self) {
			return fmt.Errorf("%w: p%d (local node is %s)", ErrNotLocal, p+1, c.self)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.closed {
			return ErrStopped
		}
		if c.smFactory != nil {
			// A fresh incarnation gets a fresh state machine: its state is
			// rebuilt from the local snapshot plus the log suffix, never
			// inherited from the dead incarnation's memory.
			c.tcpOpts.StateMachine = c.smFactory()
		}
		node, err := core.NewTCPNode(c.tcpOpts)
		if err != nil {
			return err
		}
		c.node = node
		c.bridge(node)
		return nil
	default:
		return c.group.Restart(p)
	}
}

// Add admits a new process to the group: an AddProcess op rides the
// total order like any message, decides in a consensus instance, and
// activates at a decided boundary — every member switches quorum size,
// failure-detector monitor set, ring successor order and retention
// accounting at exactly the same instance. Add returns the new
// process's ID (dense: the next unused one).
//
// On the in-process group and simulated drivers the joiner is spawned
// by the cluster itself (it catches up through snapshot install plus
// log-suffix state transfer — joins require WithDurability) and addr
// must be omitted. On the TCP driver the local node sponsors the
// admission of a process at addr — the one address argument — and every
// member learns the address from the decided op itself; the operator
// starts that process with abnode's -join flag (it may also self-request
// admission, in which case Add is not needed).
func (c *Cluster) Add(ctx context.Context, addr ...string) (ProcessID, error) {
	if !c.durable {
		// Members without write-ahead logs cannot serve the decided
		// prefix, so a joiner would wait on state transfer forever.
		return 0, fmt.Errorf("%w: Add requires WithDurability", types.ErrBadConfig)
	}
	switch {
	case c.sim != nil:
		if len(addr) > 0 {
			return 0, fmt.Errorf("%w: addr is only for the TCP driver", types.ErrBadConfig)
		}
		return c.simAdd(ctx)
	case c.hub != nil:
		if len(addr) != 1 || addr[0] == "" {
			return 0, fmt.Errorf("%w: the TCP driver needs the joiner's listen address", types.ErrBadConfig)
		}
		return c.tcpAdd(ctx, addr[0])
	default:
		if len(addr) > 0 {
			return 0, fmt.Errorf("%w: addr is only for the TCP driver", types.ErrBadConfig)
		}
		id, err := c.group.Add(ctx)
		if err != nil {
			return 0, err
		}
		c.grow(int(id) + 1)
		return id, nil
	}
}

// RequestJoin asks sponsor — a current member — to submit this
// process's admission, and blocks until the decided view admits us.
// The request frame is fire-and-forget (it may race the decide or be
// dropped by a connecting transport), so it is re-sent periodically
// until the view changes. TCP driver with WithJoin only.
func (c *Cluster) RequestJoin(ctx context.Context, sponsor ProcessID) error {
	node := c.tcpNode()
	if node == nil {
		return ErrStopped
	}
	if c.hub == nil || !c.tcpOpts.Join {
		return fmt.Errorf("%w: RequestJoin needs the TCP driver with WithJoin", types.ErrBadConfig)
	}
	addr := c.tcpOpts.Addrs[c.self]
	for !node.CurrentView().Contains(c.self) {
		if err := ctx.Err(); err != nil {
			return err
		}
		_ = node.RequestJoin(sponsor, addr)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
	return nil
}

// Remove retires process p from the group: a RemoveProcess op rides the
// total order, and once the view excluding p has activated everywhere
// the process is decommissioned (in-process and simulated drivers crash
// it; on the TCP driver the operator stops it). Removing an
// already-crashed process is the permanent-node-loss recovery: the
// group stops waiting for it and quorums shrink at the boundary.
func (c *Cluster) Remove(ctx context.Context, p int) error {
	switch {
	case c.sim != nil:
		return c.simRemove(ctx, p)
	case c.hub != nil:
		node := c.tcpNode()
		if node == nil {
			return ErrStopped
		}
		target := ProcessID(p)
		if err := submitConfigRetry(ctx, node, member.Op{Kind: member.OpRemove, Target: target}); err != nil {
			return err
		}
		return waitView(ctx, node, func(v View) bool { return !v.Contains(target) })
	default:
		return c.group.Remove(ctx, p)
	}
}

// View returns process p's newest locally applied membership view (the
// zero view for crashed processes, remote TCP peers, and out-of-range
// indexes).
func (c *Cluster) View(p int) View {
	switch {
	case c.sim != nil:
		if !c.sim.Live(ProcessID(p)) {
			return View{}
		}
		return c.sim.View(ProcessID(p))
	case c.hub != nil:
		if p != int(c.self) {
			return View{}
		}
		node := c.tcpNode()
		if node == nil {
			return View{}
		}
		return node.CurrentView()
	default:
		return c.group.View(p)
	}
}

// grow raises the facade's process-slot count after an admission.
func (c *Cluster) grow(n int) {
	c.mu.Lock()
	if n > c.n {
		c.n = n
	}
	c.mu.Unlock()
}

// size is the current process-slot count (boot group plus joiners).
func (c *Cluster) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// simSponsor finds a live simulated process to submit a config op
// through, skipping avoid.
func (c *Cluster) simSponsor(avoid int) (ProcessID, bool) {
	for p := 0; p < c.sim.Procs(); p++ {
		if p != avoid && c.sim.Live(ProcessID(p)) {
			return ProcessID(p), true
		}
	}
	return 0, false
}

// simAdd runs an admission on the simulated driver: submit at the
// current virtual instant, then step virtual time until the joiner is
// spawned AND every live member has applied the admitting view. The
// second condition matters: a config op submitted through a process
// that is still on the old epoch gets stamped with a stale BaseEpoch
// and is deterministically rejected at decide time, so returning at
// first-spawn would make an immediately following Add/Remove no-op.
func (c *Cluster) simAdd(ctx context.Context) (ProcessID, error) {
	sponsor, ok := c.simSponsor(-1)
	if !ok {
		return 0, ErrCrashed
	}
	id := ProcessID(c.sim.Procs())
	c.sim.Join(sponsor, id, c.sim.Now())
	c.sim.Run(c.sim.Now())
	admitted := func() bool {
		if c.sim.Procs() <= int(id) {
			return false
		}
		for q := 0; q < c.sim.Procs(); q++ {
			if !c.sim.Live(ProcessID(q)) {
				continue
			}
			if !c.sim.View(ProcessID(q)).Contains(id) {
				return false
			}
		}
		return true
	}
	for !admitted() {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if !c.sim.Step() {
			return 0, fmt.Errorf("%w: at virtual time %v", ErrStalled, c.sim.Now())
		}
	}
	c.grow(int(id) + 1)
	return id, nil
}

// simRemove runs a removal on the simulated driver: submit, step until
// every live survivor has applied the view excluding the target, then
// crash the target (decommission).
func (c *Cluster) simRemove(ctx context.Context, p int) error {
	target := ProcessID(p)
	sponsor, ok := c.simSponsor(p)
	if !ok {
		return ErrCrashed
	}
	c.sim.Remove(sponsor, target, c.sim.Now())
	c.sim.Run(c.sim.Now())
	applied := func() bool {
		for q := 0; q < c.sim.Procs(); q++ {
			if q == p || !c.sim.Live(ProcessID(q)) {
				continue
			}
			if c.sim.View(ProcessID(q)).Contains(target) {
				return false
			}
		}
		return true
	}
	for !applied() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !c.sim.Step() {
			return fmt.Errorf("%w: at virtual time %v", ErrStalled, c.sim.Now())
		}
	}
	if c.sim.Live(target) {
		c.sim.Crash(target, c.sim.Now())
		c.sim.Run(c.sim.Now())
	}
	return nil
}

// tcpAdd sponsors the admission of a remote joiner at addr through the
// local node and waits for the view to admit it.
func (c *Cluster) tcpAdd(ctx context.Context, addr string) (ProcessID, error) {
	node := c.tcpNode()
	if node == nil {
		return 0, ErrStopped
	}
	target := node.CurrentView().MaxID() + 1
	op := member.Op{Kind: member.OpAdd, Target: target, Addr: addr}
	if err := submitConfigRetry(ctx, node, op); err != nil {
		return 0, err
	}
	if err := waitView(ctx, node, func(v View) bool { return v.Contains(target) }); err != nil {
		return 0, err
	}
	c.grow(int(target) + 1)
	return target, nil
}

// submitConfigRetry submits one config op, retrying flow-control
// rejections (the op is an ordinary abcast competing for window slots).
func submitConfigRetry(ctx context.Context, node *runtime.Node, op member.Op) error {
	for {
		_, err := node.SubmitConfig(op)
		if !errors.Is(err, ErrFlowControl) {
			return err
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// waitView polls the local node until its applied view satisfies ok.
func waitView(ctx context.Context, node *runtime.Node, ok func(View) bool) error {
	for !ok(node.CurrentView()) {
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Node returns the runtime node driving process p, or nil when p is not
// driven by this cluster in real time (simulated driver, remote TCP
// peers, crashed processes). It is the escape hatch to the lower-level
// API.
func (c *Cluster) Node(p int) *Node {
	switch {
	case c.sim != nil:
		return nil
	case c.hub != nil:
		if p != int(c.self) {
			return nil
		}
		return c.tcpNode()
	default:
		return c.group.Node(p)
	}
}

// Applier returns process p's state machine applier: apply results,
// read-your-writes waits (Applier.Await) and canonical state digests. It
// returns nil without WithStateMachine, for remote TCP peers, and for
// crashed real-time processes.
func (c *Cluster) Applier(p int) *Applier {
	if p < 0 || p >= c.size() {
		return nil
	}
	switch {
	case c.sim != nil:
		return c.sim.Applier(ProcessID(p))
	case c.hub != nil:
		if p != int(c.self) {
			return nil
		}
		return c.tcpNode().Applier()
	default:
		node := c.group.Node(p)
		if node == nil {
			return nil
		}
		return node.Applier()
	}
}

// Obs returns process p's observability recorder (latency histograms and
// the sampled lifecycle trace). It returns nil on the real-time drivers
// without WithObservability, for remote TCP peers, and for out-of-range
// indexes; the simulated driver always records. Recorders survive
// Crash/Restart, accumulating across incarnations.
func (c *Cluster) Obs(p int) *ObsRecorder {
	if p < 0 || p >= c.size() {
		return nil
	}
	switch {
	case c.sim != nil:
		return c.sim.Obs(ProcessID(p))
	case c.hub != nil:
		if p != int(c.self) {
			return nil
		}
		return c.tcpOpts.Obs
	default:
		return c.group.Obs(p)
	}
}

// simObsConfig unwraps the optional observability config for the
// simulated driver (which always records; nil means defaults).
func simObsConfig(cfg *obs.Config) obs.Config {
	if cfg == nil {
		return obs.Config{}
	}
	return *cfg
}

// Sim returns the underlying simulated cluster (nil on real-time
// drivers) for scheduled workloads, fault injection and virtual-time
// control.
func (c *Cluster) Sim() *SimCluster { return c.sim }

// Close shuts the cluster down. Delivery streams drain what is buffered
// and then close. Close is idempotent.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()

	switch {
	case c.sim != nil:
		c.sim.Close()
		return nil
	case c.hub != nil:
		err := c.tcpNode().Close()
		c.wg.Wait() // every bridge drains its node's stream first
		c.hub.Close()
		return err
	default:
		c.group.Close()
		return nil
	}
}

// DefaultConfig returns the protocol tunables used in the paper's
// evaluation for a group of n processes.
func DefaultConfig(n int) Config { return engine.DefaultConfig(n) }

// DefaultCostModel returns the calibrated simulated-hardware model.
func DefaultCostModel() CostModel { return netsim.DefaultModel() }
