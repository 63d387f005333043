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
// Every driver exposes the same submission (Abcast, TryAbcast), the same
// delivery stream (Deliveries), the same membership operations (Add,
// Remove, View) and the same instrumentation (Counters, Stats); a process
// index out of range is ErrBadConfig everywhere, and a process that
// another OS process of a TCP group drives is ErrNotLocal.
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
// layers they build on), the drivers (internal/core for real time — the
// processes of a group this OS process drives, over in-memory channels or
// TCP, each an internal/runtime node — and internal/netsim for
// deterministic discrete-event simulation), and the measurement harness.
package modab

import (
	"context"
	"errors"
	"fmt"
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
	// SimCluster is a deterministic simulated cluster.
	SimCluster = netsim.Cluster
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

// settings accumulates the option values before driver construction. The
// real-time driver's options are filled in place; tune holds the engine
// config edits of WithBatching and friends, applied once n is known so
// they compose with WithConfig regardless of option order.
type settings struct {
	core.GroupOptions
	sim  bool
	seed int64
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
// group its own directory. The simulated driver (WithSimulation) ignores
// dir and uses a deterministic in-memory durable store instead, so
// recovery scenarios replay identically under virtual time.
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
// path and never perturbs the protocol. The simulated driver records
// unconditionally (in deterministic virtual time); there this option only
// tunes the sampling period.
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
// explicitly. TCP driver only.
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

// WithFailureDetector parameterizes the heartbeat failure detector of
// the real-time drivers: heartbeats every period, suspicion after
// timeout without traffic. The simulator ignores it (detection latency
// lives in the cost model's FDDetect).
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

// driver is the seam between the facade and what runs the group. It has
// two implementations: *core.Group — the real-time processes this OS
// process drives, all of an in-memory group or one of a TCP group — and
// simDriver, the virtual-time adapter over the simulator. Process indexes
// reaching a driver are already range-checked by the facade.
type driver interface {
	N() int
	Abcast(ctx context.Context, p int, body []byte) (MsgID, error)
	TryAbcast(p int, body []byte) (MsgID, error)
	Deliveries(opts ...StreamOption) *DeliveryStream
	Counters(p int) Snapshot
	Stats() Stats
	Crash(p int) error
	Restart(p int) error
	Add(ctx context.Context, addr string) (ProcessID, error)
	RequestJoin(ctx context.Context, sponsor ProcessID) error
	Remove(ctx context.Context, p int) error
	View(p int) View
	Node(p int) *Node
	Applier(p int) *Applier
	Obs(p int) *ObsRecorder
	Close() error
}

// Cluster is the unified facade over the drivers: the real-time group —
// every process over in-memory channels (the default) or one process of
// a TCP group (WithTransportTCP) — or a simulated cluster
// (WithSimulation). All share the same submission, delivery-stream,
// membership and instrumentation surface; on a TCP group every
// per-process method answers ErrNotLocal (or a zero value) for the
// processes other OS processes drive.
type Cluster struct {
	stack Stack
	drv   driver
	// sim is the simulated driver's cluster (Sim); nil in real time.
	sim *netsim.Cluster
	// durable records WithDurability, which Restart and Add require.
	durable bool
}

// New builds a cluster of n processes running the given stack. With no
// options it starts the whole group in this OS process over an in-memory
// network; WithTransportTCP makes it one process of a TCP group instead,
// and WithSimulation selects the simulated driver.
func New(n int, stack Stack, opts ...Option) (*Cluster, error) {
	var s settings
	for _, o := range opts {
		if err := o(&s); err != nil {
			return nil, err
		}
	}
	if s.sim && (len(s.Addrs) > 0 || s.Join) {
		return nil, fmt.Errorf("%w: WithTransportTCP/WithJoin and WithSimulation are mutually exclusive", types.ErrBadConfig)
	}
	if len(s.tune) > 0 {
		// Materialize the defaults first so the edits survive the drivers'
		// zero-config check, then overlay them on whatever WithConfig
		// supplied.
		if s.Engine.N == 0 {
			s.Engine = engine.DefaultConfig(n)
		}
		for _, edit := range s.tune {
			edit(&s.Engine)
		}
	}
	c := &Cluster{stack: stack, durable: s.Durability != nil}
	if !s.sim {
		group, err := core.NewGroup(n, stack, s.GroupOptions)
		if err != nil {
			return nil, err
		}
		c.drv = group
		return c, nil
	}
	so := netsim.Options{
		N:             n,
		Stack:         stack,
		Engine:        s.Engine,
		Seed:          s.seed,
		Durable:       c.durable,
		StateMachine:  s.StateMachine,
		SnapshotEvery: s.SnapshotEvery,
	}
	if s.Observability != nil {
		so.Obs = *s.Observability // the simulator always records; nil means defaults
	}
	sim, err := netsim.NewCluster(so)
	if err != nil {
		return nil, err
	}
	c.sim, c.drv = sim, simDriver{sim}
	return c, nil
}

// N returns the number of process slots: the boot group plus every
// joiner admitted so far (removed and crashed processes keep theirs).
func (c *Cluster) N() int { return c.drv.N() }

// Stack returns the implementation under the facade.
func (c *Cluster) Stack() Stack { return c.stack }

// check range-checks a process index once, ahead of the driver call, so
// every driver answers an out-of-range p alike.
func (c *Cluster) check(p int) error {
	if n := c.drv.N(); p < 0 || p >= n {
		return fmt.Errorf("%w: p%d of %d", ErrBadConfig, p+1, n)
	}
	return nil
}

// Abcast submits one payload for total-order broadcast at process p. It
// blocks while p's flow-control window is full — woken by a condition
// signal, not a poll — and returns ctx.Err() on cancellation or
// deadline, ErrStopped after Close, ErrCrashed at a crashed process, and
// ErrNotLocal when p is a remote peer of a TCP-driver cluster. On the
// simulated driver, blocking advances virtual time step by step until
// the window drains (ErrStalled if it never can).
func (c *Cluster) Abcast(ctx context.Context, p int, body []byte) (MsgID, error) {
	if err := c.check(p); err != nil {
		return MsgID{}, err
	}
	return c.drv.Abcast(ctx, p, body)
}

// TryAbcast submits without waiting: ErrFlowControl when the window is
// full — the only entry point that returns it.
func (c *Cluster) TryAbcast(p int, body []byte) (MsgID, error) {
	if err := c.check(p); err != nil {
		return MsgID{}, err
	}
	return c.drv.TryAbcast(p, body)
}

// Deliveries subscribes to the cluster-wide adelivery stream: every
// adelivery at every process this cluster drives, tagged with process
// and time. Per-process order is preserved. The channel closes after
// Close (subscribers drain their buffers first); a subscription taken
// after Close sees an already-closed channel.
func (c *Cluster) Deliveries(opts ...StreamOption) *DeliveryStream {
	return c.drv.Deliveries(opts...)
}

// Counters returns a snapshot of process p's instrumentation. On the TCP
// driver only the local process has counters; remote peers — like crashed
// processes and out-of-range indexes — read as zero.
func (c *Cluster) Counters(p int) Snapshot {
	if c.check(p) != nil {
		return Snapshot{}
	}
	return c.drv.Counters(p)
}

// Stats returns the uniform whole-cluster snapshot: per-process counters
// plus totals (including delivery-stream drops).
func (c *Cluster) Stats() Stats { return c.drv.Stats() }

// Crash stops process p: crash-stop fault injection (survivors' failure
// detectors take over). On the TCP driver it stops the local process and
// returns ErrNotLocal for a remote one.
func (c *Cluster) Crash(p int) error {
	if err := c.check(p); err != nil {
		return err
	}
	return c.drv.Crash(p)
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
// incarnations, while on the real-time driver the restarted process's
// Counters restart from zero — its pre-crash deliveries are summarized
// by RecoveryReplayedMsgs (ADeliver + RecoveryReplayedMsgs is its
// lifetime delivery count).
func (c *Cluster) Restart(p int) error {
	if !c.durable {
		return fmt.Errorf("%w: Restart requires WithDurability", ErrBadConfig)
	}
	if err := c.check(p); err != nil {
		return err
	}
	return c.drv.Restart(p)
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
		return 0, fmt.Errorf("%w: Add requires WithDurability", ErrBadConfig)
	}
	switch len(addr) {
	case 0:
		return c.drv.Add(ctx, "")
	case 1:
		return c.drv.Add(ctx, addr[0])
	}
	return 0, fmt.Errorf("%w: Add takes at most one address", ErrBadConfig)
}

// RequestJoin asks sponsor — a current member — to submit this
// process's admission, and blocks until the decided view admits us.
// The request frame is fire-and-forget (it may race the decide or be
// dropped by a connecting transport), so it is re-sent periodically
// until the view changes. TCP driver with WithJoin only (ErrBadConfig
// otherwise).
func (c *Cluster) RequestJoin(ctx context.Context, sponsor ProcessID) error {
	return c.drv.RequestJoin(ctx, sponsor)
}

// Remove retires process p from the group: a RemoveProcess op rides the
// total order, and once the view excluding p has activated everywhere
// the process is decommissioned (crashed when this cluster drives it; a
// remote peer of a TCP group is stopped by its operator). Removing an
// already-crashed process is the permanent-node-loss recovery: the
// group stops waiting for it and quorums shrink at the boundary.
func (c *Cluster) Remove(ctx context.Context, p int) error {
	if err := c.check(p); err != nil {
		return err
	}
	return c.drv.Remove(ctx, p)
}

// View returns process p's newest locally applied membership view (the
// zero view for crashed processes, remote TCP peers, and out-of-range
// indexes).
func (c *Cluster) View(p int) View {
	if c.check(p) != nil {
		return View{}
	}
	return c.drv.View(p)
}

// Node returns the runtime node driving process p, or nil when p is not
// driven by this cluster in real time (simulated driver, remote TCP
// peers, crashed processes). It is the escape hatch to the lower-level
// API.
func (c *Cluster) Node(p int) *Node {
	if c.check(p) != nil {
		return nil
	}
	return c.drv.Node(p)
}

// Applier returns process p's state machine applier: apply results,
// read-your-writes waits (Applier.Await) and canonical state digests. It
// returns nil without WithStateMachine, for remote TCP peers, and for
// crashed real-time processes.
func (c *Cluster) Applier(p int) *Applier {
	if c.check(p) != nil {
		return nil
	}
	return c.drv.Applier(p)
}

// Obs returns process p's observability recorder (latency histograms and
// the sampled lifecycle trace). It returns nil on the real-time driver
// without WithObservability, for remote TCP peers, and for out-of-range
// indexes; the simulated driver always records. Recorders survive
// Crash/Restart, accumulating across incarnations.
func (c *Cluster) Obs(p int) *ObsRecorder {
	if c.check(p) != nil {
		return nil
	}
	return c.drv.Obs(p)
}

// Sim returns the underlying simulated cluster (nil on the real-time
// driver) for scheduled workloads, fault injection and virtual-time
// control.
func (c *Cluster) Sim() *SimCluster { return c.sim }

// Close shuts the cluster down. Delivery streams drain what is buffered
// and then close. Close is idempotent.
func (c *Cluster) Close() error { return c.drv.Close() }

// DefaultConfig returns the protocol tunables used in the paper's
// evaluation for a group of n processes.
func DefaultConfig(n int) Config { return engine.DefaultConfig(n) }

// simDriver adapts the simulator to the driver seam. The simulator
// schedules; the facade blocks — so every operation is submitted at the
// current virtual instant and virtual time is then advanced until its
// outcome is visible.
type simDriver struct{ sim *netsim.Cluster }

// settle executes everything due at the current virtual instant.
func (s simDriver) settle() { s.sim.Run(s.sim.Now()) }

// stepUntil advances virtual time event by event until cond holds, the
// context ends, or the event queue runs dry (ErrStalled).
func (s simDriver) stepUntil(ctx context.Context, cond func() bool) error {
	for !cond() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !s.sim.Step() {
			return fmt.Errorf("%w: at virtual time %v", ErrStalled, s.sim.Now())
		}
	}
	return nil
}

// sponsor finds a live process to submit a config op through, skipping
// avoid.
func (s simDriver) sponsor(avoid int) (ProcessID, error) {
	for p := 0; p < s.sim.Procs(); p++ {
		if p != avoid && s.sim.Live(ProcessID(p)) {
			return ProcessID(p), nil
		}
	}
	return 0, ErrCrashed
}

// viewEverywhere reports whether every live process other than skip has
// applied a view whose membership of id equals member.
func (s simDriver) viewEverywhere(id ProcessID, member bool, skip int) bool {
	for q := 0; q < s.sim.Procs(); q++ {
		if q != skip && s.sim.Live(ProcessID(q)) && s.sim.View(ProcessID(q)).Contains(id) != member {
			return false
		}
	}
	return true
}

func (s simDriver) N() int { return s.sim.Procs() }

// Abcast retries TryAbcast, advancing virtual time while the window is
// full.
func (s simDriver) Abcast(ctx context.Context, p int, body []byte) (MsgID, error) {
	for {
		id, err := s.TryAbcast(p, body)
		if !errors.Is(err, ErrFlowControl) {
			return id, err
		}
		// Step virtual time until something is adelivered at p — only a
		// delivery of p's own message can free the window, so retrying
		// any earlier just charges the process CPU for rejected
		// submissions that distort the simulated measurements.
		before := s.Counters(p).ADeliver
		if err := s.stepUntil(ctx, func() bool { return s.Counters(p).ADeliver != before }); err != nil {
			return MsgID{}, err
		}
	}
}

func (s simDriver) TryAbcast(p int, body []byte) (id MsgID, err error) {
	s.sim.Abcast(ProcessID(p), s.sim.Now(), body, func(i MsgID, _ time.Duration, e error) { id, err = i, e })
	s.settle()
	return id, err
}

func (s simDriver) Deliveries(opts ...StreamOption) *DeliveryStream {
	return s.sim.Deliveries(opts...)
}

// Counters accumulate across incarnations (they live on the simulated
// process, not on its engine).
func (s simDriver) Counters(p int) Snapshot { return s.sim.Counters(ProcessID(p)) }

func (s simDriver) Stats() Stats { return s.sim.Stats() }

func (s simDriver) Crash(p int) error {
	s.sim.Crash(ProcessID(p), s.sim.Now())
	s.settle()
	return nil
}

func (s simDriver) Restart(p int) error {
	s.sim.Restart(ProcessID(p), s.sim.Now())
	s.settle()
	return nil
}

// Add steps until the joiner is spawned AND every live member has
// applied the admitting view. The second condition matters: a config op
// submitted through a process that is still on the old epoch gets
// stamped with a stale BaseEpoch and is deterministically rejected at
// decide time, so returning at first-spawn would make an immediately
// following Add/Remove no-op.
func (s simDriver) Add(ctx context.Context, addr string) (ProcessID, error) {
	if addr != "" {
		return 0, fmt.Errorf("%w: addr is only for the TCP driver", ErrBadConfig)
	}
	sponsor, err := s.sponsor(-1)
	if err != nil {
		return 0, err
	}
	id := ProcessID(s.sim.Procs())
	s.sim.Join(sponsor, id, s.sim.Now())
	s.settle()
	err = s.stepUntil(ctx, func() bool {
		return s.sim.Procs() > int(id) && s.viewEverywhere(id, true, -1)
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// RequestJoin is a TCP deployment step; simulated joiners are spawned by
// Add.
func (s simDriver) RequestJoin(context.Context, ProcessID) error {
	return fmt.Errorf("%w: RequestJoin needs the TCP driver with WithJoin", ErrBadConfig)
}

// Remove steps until every live survivor has applied the view excluding
// p, then crashes p (decommission).
func (s simDriver) Remove(ctx context.Context, p int) error {
	sponsor, err := s.sponsor(p)
	if err != nil {
		return err
	}
	s.sim.Remove(sponsor, ProcessID(p), s.sim.Now())
	s.settle()
	if err := s.stepUntil(ctx, func() bool { return s.viewEverywhere(ProcessID(p), false, p) }); err != nil {
		return err
	}
	if s.sim.Live(ProcessID(p)) {
		return s.Crash(p)
	}
	return nil
}

func (s simDriver) View(p int) View {
	if !s.sim.Live(ProcessID(p)) {
		return View{}
	}
	return s.sim.View(ProcessID(p))
}

// Node is nil: no real-time node runs a simulated process.
func (s simDriver) Node(int) *Node { return nil }

func (s simDriver) Applier(p int) *Applier { return s.sim.Applier(ProcessID(p)) }

func (s simDriver) Obs(p int) *ObsRecorder { return s.sim.Obs(ProcessID(p)) }

func (s simDriver) Close() error { s.sim.Close(); return nil }
