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
//	modab.New(3, modab.Monolithic, modab.WithTransportTCP(addrs, self))
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
// layers they build on), the real-time node each process of a Cluster
// runs (internal/runtime — one event loop per process, over in-memory
// channels or TCP), the deterministic discrete-event simulator the
// figures come from (internal/netsim, driven by cmd/abbench), and the
// measurement harness.
package modab

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"modab/internal/batch"
	"modab/internal/dissem"
	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/obs"
	"modab/internal/recovery"
	"modab/internal/rsm"
	"modab/internal/runtime"
	"modab/internal/stream"
	"modab/internal/trace"
	"modab/internal/transport"
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
	// Delivery is one adelivered message with its ordering instance; Msg.Body is read-only.
	Delivery = engine.Delivery
	// Event is one adelivery tagged with the delivering process and the
	// driver's clock — the element of cluster-wide delivery streams.
	Event = engine.Event
	// Config carries the protocol tunables shared by both stacks.
	Config = engine.Config
	// BatchConfig tunes sender-side batching (see WithBatching and
	// Config.Batch); the zero value disables it.
	BatchConfig = batch.Config
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

// DecodeKVResult splits a KV apply result (Applier.Await, read-only)
// into its status byte and value.
func DecodeKVResult(res []byte) (status byte, value []byte) { return rsm.DecodeResult(res) }

// StreamBuffer overrides the subscription's buffer capacity.
func StreamBuffer(n int) StreamOption { return stream.WithBuffer(n) }

// StreamOverflow overrides the subscription's overflow policy.
func StreamOverflow(p OverflowPolicy) StreamOption { return stream.WithPolicy(p) }

// Option configures New.
type Option func(*settings) error

// settings accumulates the option values. tune holds the engine config
// edits of WithBatching and friends, applied once n is known so they
// compose with WithConfig regardless of option order.
type settings struct {
	engine Config
	tune   []func(*Config)
	// dir roots the write-ahead logs (WithDurability; empty: no
	// durability); sync is their fsync policy.
	dir  string
	sync SyncPolicy
	// stateMachine builds one replica per node incarnation
	// (WithStateMachine); snapshotEvery is its snapshot cadence.
	stateMachine  func() StateMachine
	snapshotEvery uint64
	// obs configures the per-process recorders (WithObservability).
	obs *obs.Config
	// addrs puts the cluster on TCP, driving process self only
	// (WithTransportTCP); join and bootN come from WithJoin.
	addrs []string
	self  ProcessID
	join  bool
	bootN int
}

// WithConfig overrides the protocol tunables (flow-control window, batch
// cap, idle kick, ...). The zero value means DefaultConfig(n). The fields
// a driver injects (Persist, Recovered, Snapshots, InitialView, OnConfig,
// Obs) must stay unset, and a non-zero N must equal n: New returns
// ErrBadConfig otherwise.
func WithConfig(cfg Config) Option {
	return func(s *settings) error {
		s.engine = cfg
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
		if dir == "" {
			return fmt.Errorf("%w: WithDurability requires a directory", types.ErrBadConfig)
		}
		s.dir, s.sync = dir, policy
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
		s.stateMachine = factory
		s.snapshotEvery = snapshotEvery
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
		s.obs = &obs.Config{SampleEvery: sampleEvery}
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
		s.addrs = addrs
		s.self = self
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
		s.join = true
		s.bootN = bootN
		return nil
	}
}

// Cluster is the processes of one group this OS process drives: every
// process over in-memory channels (the default) or one process of a TCP
// group (WithTransportTCP), each a real-time node with its own event loop.
// Both shapes share the same submission, delivery-stream, membership and
// instrumentation surface; which slots are local is the only thing they
// differ in, so every per-process method resolves its target through one
// lookup and, on a TCP group, answers ErrNotLocal (or a zero value) for
// the processes other OS processes drive.
type Cluster struct {
	stack Stack
	// opts are the option values, kept to build every node incarnation.
	opts settings

	// mu guards nodes, obsRecs, addrs (and the membership state below):
	// Crash, Restart, Close, joiner spawns and decided admissions swap or
	// grow entries concurrently with submissions reading them.
	mu    sync.RWMutex
	nodes []*runtime.Node
	// obsRecs holds the local processes' observability recorders (nil
	// entries without WithObservability). Like counters they outlive node
	// incarnations: Restart hands the new node its predecessor's recorder.
	obsRecs []*obs.Recorder
	// net connects the processes of an all-local group; nil over TCP,
	// where addrs is the address table instead. The table grows as OpAdd
	// ops activate, so every member learns a joiner's address from the
	// decided op itself (no out-of-band address exchange).
	net   *transport.MemNetwork
	addrs []string
	hub   *stream.Hub[Event]
	start time.Time

	// bootN is the boot group size — the epoch-0 view every incarnation
	// rebuilds its config history from (runtime Options.N must stay the
	// boot size across restarts and joins; the current membership is the
	// engines' business, not a driver constant).
	bootN int
	// nextID allocates dense joiner IDs; pending marks IDs whose OpAdd is
	// in flight so the first applied view naming one spawns it exactly
	// once. spawnErr surfaces a failed spawn to the waiting Add. closed
	// stops late spawns after Close.
	nextID   ProcessID
	pending  map[ProcessID]bool
	spawnErr map[ProcessID]error
	closed   bool
	// viewCh is closed and replaced on every applied view change and
	// joiner spawn — a condition broadcast for Add/Remove waiters.
	viewMu sync.Mutex
	viewCh chan struct{}

	// lifecycle serializes Crash, Restart and Close with each other (but
	// not with submissions): a Restart overlapping a Crash of the same
	// process could otherwise reopen the write-ahead log while the dying
	// incarnation is still appending to it.
	lifecycle sync.Mutex

	// streamDropped counts drops at cluster-level subscriptions. With every
	// process local they are not attributable to one of them and Stats
	// folds them into the totals; the single local process of a TCP group
	// owns them all (see Counters).
	streamDropped atomic.Int64
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
	if n < 1 {
		return nil, types.ErrEmptyGroup
	}
	if err := checkConfig(s.engine, n); err != nil {
		return nil, err
	}
	if len(s.tune) > 0 {
		// Materialize the defaults first so the edits survive the node's
		// zero-config check, then overlay them on whatever WithConfig
		// supplied.
		if s.engine.N == 0 {
			s.engine = engine.DefaultConfig(n)
		}
		for _, edit := range s.tune {
			edit(&s.engine)
		}
	}
	c := &Cluster{
		stack:    stack,
		opts:     s,
		start:    time.Now(),
		bootN:    n,
		nextID:   ProcessID(n),
		pending:  make(map[ProcessID]bool),
		spawnErr: make(map[ProcessID]error),
		viewCh:   make(chan struct{}),
	}
	switch {
	case len(s.addrs) == 0 && s.join:
		return nil, fmt.Errorf("%w: WithJoin requires a TCP address table", types.ErrBadConfig)
	case len(s.addrs) == 0:
		c.net = transport.NewMemNetwork()
	case len(s.addrs) != n:
		return nil, fmt.Errorf("%w: n=%d, %d addresses", types.ErrBadConfig, n, len(s.addrs))
	default:
		c.addrs = append([]string(nil), s.addrs...)
		// A joiner's boot group is the peers below its own slot; a boot
		// member counts the whole table. WithJoin's bootN overrides both.
		if s.join {
			c.bootN = int(s.self)
		}
		if s.bootN > 0 {
			c.bootN = s.bootN
		}
		if s.join && c.bootN > int(s.self) {
			// A joiner is a process outside the boot group (recovery.Boot).
			return nil, fmt.Errorf("%w: WithJoin boot group of %d includes self %s", types.ErrBadConfig, c.bootN, s.self)
		}
	}
	c.hub = stream.NewHub[Event](stream.DefaultBuffer, stream.Block,
		func() { c.streamDropped.Add(1) })
	c.grow(n)
	for i := 0; i < n; i++ {
		if !c.local(i) {
			continue
		}
		node, err := c.startNode(ProcessID(i), nil)
		if err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("modab: start node %d: %w", i, err)
		}
		c.nodes[i] = node
	}
	return c, nil
}

// checkConfig rejects a WithConfig value the nodes would otherwise honour
// or overwrite depending on other options: the driver-injected fields are
// the cluster's to set, and a non-zero N must be the group size.
func checkConfig(cfg Config, n int) error {
	switch {
	case cfg.N != 0 && cfg.N != n:
		return fmt.Errorf("%w: Config.N=%d in a group of %d", types.ErrBadConfig, cfg.N, n)
	case cfg.Persist != nil || cfg.Recovered != nil || cfg.Snapshots != nil ||
		cfg.InitialView != nil || cfg.OnConfig != nil || cfg.Obs != nil:
		return fmt.Errorf("%w: Config sets a driver-injected field (Persist, Recovered, Snapshots, InitialView, OnConfig or Obs)", types.ErrBadConfig)
	}
	return nil
}

// local reports whether this cluster drives slot p itself.
func (c *Cluster) local(p int) bool { return c.net != nil || p == int(c.opts.self) }

// grow extends the slot tables to n entries (mu held, or during
// construction): a nil node, a recorder for a local slot under
// WithObservability, an unknown address over TCP.
func (c *Cluster) grow(n int) {
	for p := len(c.nodes); p < n; p++ {
		c.nodes = append(c.nodes, nil)
		var rec *obs.Recorder
		if c.opts.obs != nil && c.local(p) {
			rec = obs.NewRecorder(*c.opts.obs)
		}
		c.obsRecs = append(c.obsRecs, rec)
		if c.net == nil && p >= len(c.addrs) {
			c.addrs = append(c.addrs, "")
		}
	}
}

// dir is process p's durable directory (see WithDurability).
func (c *Cluster) dir(p ProcessID) string {
	if c.net == nil {
		return c.opts.dir
	}
	return filepath.Join(c.opts.dir, fmt.Sprintf("p%d", p))
}

// startNode builds one incarnation of local process p on a fresh
// transport endpoint, opening its write-ahead log and snapshot store
// when durability is configured. A non-nil initView marks the node a
// spawned joiner: it starts from the admitting view and catches up
// through state transfer instead of assuming the boot group.
func (c *Cluster) startNode(p ProcessID, initView *member.View) (*runtime.Node, error) {
	c.mu.RLock()
	in := recovery.Incarnation{Self: p, N: c.bootN, Engine: c.opts.engine, SnapshotEvery: c.opts.snapshotEvery}
	in.Engine.Obs, in.Engine.InitialView = c.obsRecs[p], initView
	addrs := c.addrs
	c.mu.RUnlock()
	if c.opts.dir != "" {
		log, err := wal.Open(c.dir(p), wal.Options{Policy: c.opts.sync, Obs: in.Engine.Obs})
		if err != nil {
			return nil, err
		}
		in.Store = log
	}
	var tr transport.Transport
	fail := func(err error) (*runtime.Node, error) {
		if tr != nil {
			_ = tr.Close()
		}
		if in.Store != nil {
			_ = in.Store.Close()
		}
		return nil, err
	}
	if c.opts.stateMachine != nil {
		// A fresh incarnation gets a fresh state machine: its state is
		// rebuilt from the local snapshot plus the log suffix, never
		// inherited from the dead incarnation's memory. Snapshots live in
		// files alongside the write-ahead log when the group is durable,
		// in memory otherwise.
		in.StateMachine, in.Snapshots = c.opts.stateMachine(), rsm.NewMemStore()
		if c.opts.dir != "" {
			var err error
			if in.Snapshots, err = rsm.OpenFileStore(filepath.Join(c.dir(p), "snap")); err != nil {
				return fail(err)
			}
		}
	}
	var tcp *transport.TCP
	if c.net != nil {
		tr = c.net.Reset(p)
	} else {
		var err error
		if tcp, err = transport.NewTCP(p, addrs); err != nil {
			return fail(err)
		}
		tr = tcp
	}
	node, err := runtime.NewNode(runtime.Options{
		Incarnation: in,
		Stack:       c.stack,
		Transport:   tr,
		OnDeliver: func(d engine.Delivery) {
			c.hub.Publish(Event{P: p, D: d, At: time.Since(c.start)})
		},
		OnConfig: func(v member.View, op member.Op) { c.onViewChange(tcp, v, op) },
	})
	if err != nil {
		return fail(err)
	}
	return node, nil
}

// node fetches one process's live node — the single lookup behind every
// per-process method: ErrBadConfig out of range, ErrNotLocal for a slot
// another OS process drives, ErrStopped after Close, ErrCrashed after
// Crash.
func (c *Cluster) node(p int) (*runtime.Node, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	switch {
	case p < 0 || p >= len(c.nodes):
		return nil, fmt.Errorf("%w: p%d of a group of %d", types.ErrBadConfig, p+1, len(c.nodes))
	case !c.local(p):
		return nil, fmt.Errorf("%w: p%d (local node is %s)", types.ErrNotLocal, p+1, c.opts.self)
	case c.closed:
		return nil, types.ErrStopped
	case c.nodes[p] == nil:
		return nil, types.ErrCrashed
	}
	return c.nodes[p], nil
}

// N returns the number of process slots: the boot group plus every
// joiner admitted so far (removed and crashed processes keep theirs).
func (c *Cluster) N() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// Stack returns the implementation under the facade.
func (c *Cluster) Stack() Stack { return c.stack }

// Abcast submits one payload for total-order broadcast at process p. It
// blocks while p's flow-control window is full — woken by a condition
// signal, not a poll — and returns ctx.Err() on cancellation or
// deadline, ErrStopped after Close, ErrCrashed at a crashed process, and
// ErrNotLocal when p is a remote peer of a TCP group.
func (c *Cluster) Abcast(ctx context.Context, p int, body []byte) (MsgID, error) {
	node, err := c.node(p)
	if err != nil {
		return MsgID{}, err
	}
	return node.Abcast(ctx, body)
}

// TryAbcast submits without waiting: ErrFlowControl when the window is
// full — the only entry point that returns it.
func (c *Cluster) TryAbcast(p int, body []byte) (MsgID, error) {
	node, err := c.node(p)
	if err != nil {
		return MsgID{}, err
	}
	return node.TryAbcast(body)
}

// Deliveries subscribes to the cluster-wide adelivery stream: every
// adelivery at every process this cluster drives, tagged with process
// and time. Per-process order is preserved. The channel closes after
// Close (subscribers drain their buffers first); a subscription taken
// after Close sees an already-closed channel.
func (c *Cluster) Deliveries(opts ...StreamOption) *DeliveryStream {
	return c.hub.Subscribe(opts...)
}

// Counters returns a snapshot of process p's instrumentation. On a TCP
// group only the local process has counters; remote peers — like crashed
// processes and out-of-range indexes — read as zero.
func (c *Cluster) Counters(p int) Snapshot {
	node, err := c.node(p)
	if err != nil {
		return Snapshot{}
	}
	snap := node.Counters()
	if c.net == nil {
		snap.StreamDropped += c.streamDropped.Load()
	}
	return snap
}

// Stats returns the uniform whole-cluster snapshot: per-process counters
// plus totals (including delivery-stream drops).
func (c *Cluster) Stats() Stats {
	n := c.N()
	st := Stats{N: n, PerProcess: make([]Snapshot, n)}
	for i := 0; i < n; i++ {
		st.PerProcess[i] = c.Counters(i)
		st.Total.Add(st.PerProcess[i])
	}
	if c.net != nil {
		st.Total.StreamDropped += c.streamDropped.Load()
	}
	return st
}

// Crash stops process p: crash-stop fault injection (survivors' failure
// detectors take over). On a TCP group it stops the local process and
// returns ErrNotLocal for a remote one.
func (c *Cluster) Crash(p int) error {
	c.lifecycle.Lock()
	defer c.lifecycle.Unlock()
	node, err := c.node(p)
	if errors.Is(err, types.ErrCrashed) {
		return nil
	}
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.nodes[p] = nil
	c.mu.Unlock()
	// Close returns only after the node fully stopped and released its
	// write-ahead log, so a subsequent Restart finds the log quiescent.
	return node.Close()
}

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
func (c *Cluster) Restart(p int) error {
	if c.opts.dir == "" {
		return fmt.Errorf("%w: Restart requires durability (WithDurability)", types.ErrBadConfig)
	}
	// Serialize against Crash/Close: the old incarnation must have fully
	// released its write-ahead log before this one reopens it.
	c.lifecycle.Lock()
	defer c.lifecycle.Unlock()
	switch _, err := c.node(p); {
	case err == nil:
		return fmt.Errorf("%w: p%d is still running", types.ErrBadConfig, p+1)
	case !errors.Is(err, types.ErrCrashed):
		return err
	}
	node, err := c.startNode(ProcessID(p), nil)
	if err != nil {
		return fmt.Errorf("modab: restart node %d: %w", p, err)
	}
	c.mu.Lock()
	c.nodes[p] = node
	c.mu.Unlock()
	return nil
}

// Add admits a new process to the group: an AddProcess op rides the
// total order like any message, decides in a consensus instance, and
// activates at a decided boundary — every member switches quorum size,
// failure-detector monitor set, ring successor order and retention
// accounting at exactly the same instance. Add returns the new
// process's ID (dense: the next unused one) once a local joiner is
// running and every live local process has applied the admitting view.
// Joins require WithDurability.
//
// In memory the joiner is spawned by the cluster itself (it catches up
// through snapshot install plus log-suffix state transfer) and addr must
// be omitted. On a TCP group the local node sponsors the admission of a
// process at addr — the one address argument — and every member learns
// the address from the decided op itself; the operator starts that
// process with abnode's -join flag (it may also self-request admission,
// in which case Add is not needed).
func (c *Cluster) Add(ctx context.Context, addr ...string) (ProcessID, error) {
	if len(addr) > 1 {
		return 0, fmt.Errorf("%w: Add takes at most one address", types.ErrBadConfig)
	}
	if c.opts.dir == "" {
		// Members without write-ahead logs cannot serve the decided
		// prefix, so the joiner's state transfer would never finish.
		return 0, fmt.Errorf("%w: Add requires durability (WithDurability)", types.ErrBadConfig)
	}
	tcpAddr := len(addr) == 1 && addr[0] != ""
	if tcpAddr != (c.net == nil) {
		return 0, fmt.Errorf("%w: a joiner's listen address is given exactly when the group runs over TCP", types.ErrBadConfig)
	}
	op := member.Op{Kind: member.OpAdd}
	if tcpAddr {
		// No group-wide allocator over TCP: the next ID of the sponsor's
		// view (a racing admission loses the epoch CAS at decide time).
		v := c.View(int(c.opts.self))
		if len(v.Members) == 0 {
			return 0, types.ErrCrashed // the one process that could sponsor is down
		}
		op.Target, op.Addr = v.MaxID()+1, addr[0]
	} else {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return 0, types.ErrStopped
		}
		op.Target = c.nextID
		c.nextID++
		c.pending[op.Target] = true
		c.mu.Unlock()
	}
	if err := c.submitConfig(ctx, op, -1); err != nil {
		c.mu.Lock()
		delete(c.pending, op.Target)
		c.mu.Unlock()
		return 0, err
	}
	for {
		wait := c.viewChanged()
		c.mu.RLock()
		running := !c.local(int(op.Target)) || int(op.Target) < len(c.nodes) && c.nodes[op.Target] != nil
		err := c.spawnErr[op.Target]
		c.mu.RUnlock()
		if err != nil {
			return 0, err
		}
		// Not at first spawn: a config op submitted through a process still
		// on the old epoch is stamped with a stale BaseEpoch and rejected
		// at decide time, so an immediately following Add/Remove would
		// silently do nothing.
		if running && c.viewEverywhere(op.Target, true) {
			return op.Target, nil
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// RequestJoin asks sponsor — a current member — to submit this
// process's admission, and blocks until the decided view admits us.
// The request frame is fire-and-forget (it may race the decide or be
// dropped by a connecting transport), so it is re-sent periodically
// until the view changes. TCP groups started with WithJoin only
// (ErrBadConfig otherwise).
func (c *Cluster) RequestJoin(ctx context.Context, sponsor ProcessID) error {
	if !c.opts.join {
		return fmt.Errorf("%w: RequestJoin needs a TCP group started with WithJoin", types.ErrBadConfig)
	}
	self := c.opts.self
	for {
		wait := c.viewChanged()
		node, err := c.node(int(self))
		if err != nil {
			return err
		}
		if node.CurrentView().Contains(self) {
			return nil
		}
		_ = node.RequestJoin(sponsor, c.opts.addrs[self]) // lost requests are re-sent below
		select {
		case <-wait:
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Remove retires process p from the group: a RemoveProcess op rides the
// total order, and once the view excluding p has activated everywhere
// the process is decommissioned (crashed when this cluster drives it; a
// remote peer of a TCP group is stopped by its operator). Removing an
// already-crashed process is the permanent-node-loss recovery: the
// group stops waiting for it and quorums shrink at the boundary.
func (c *Cluster) Remove(ctx context.Context, p int) error {
	// Crashed and remote targets are fine; only a slot that does not exist is not.
	if _, err := c.node(p); errors.Is(err, types.ErrBadConfig) {
		return err
	}
	target := ProcessID(p)
	if err := c.submitConfig(ctx, member.Op{Kind: member.OpRemove, Target: target}, p); err != nil {
		return err
	}
	for {
		wait := c.viewChanged()
		if c.viewEverywhere(target, false) {
			if !c.local(p) {
				return nil
			}
			return c.Crash(p)
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// View returns process p's newest locally applied membership view (the
// zero view for crashed processes, remote TCP peers, and out-of-range
// indexes).
func (c *Cluster) View(p int) View {
	node, err := c.node(p)
	if err != nil {
		return View{}
	}
	return node.CurrentView()
}

// submitConfig drives one config op through a live local member,
// retrying flow-control rejections (the op is an ordinary abcast
// competing for window slots). avoid names a process to use as sponsor
// only when no other is driven here — the remove target; -1 for none.
func (c *Cluster) submitConfig(ctx context.Context, op member.Op, avoid int) error {
	for {
		node := c.sponsor(avoid)
		if node == nil {
			return types.ErrCrashed
		}
		_, err := node.SubmitConfig(op)
		if !errors.Is(err, types.ErrFlowControl) {
			return err
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// sponsor picks a live local node to submit a config op through,
// preferring any other than avoid.
func (c *Cluster) sponsor(avoid int) *runtime.Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var avoided *runtime.Node
	for i, n := range c.nodes {
		switch {
		case n == nil:
		case i == avoid:
			avoided = n
		default:
			return n
		}
	}
	return avoided
}

// viewEverywhere reports whether id's membership equals member in the
// applied view of every live local process (at least one). A process
// being removed does not vouch for its own removal unless it is the only
// one driven here (a TCP process sponsoring its own removal).
func (c *Cluster) viewEverywhere(id ProcessID, member bool) bool {
	c.mu.RLock()
	nodes := append([]*runtime.Node(nil), c.nodes...)
	c.mu.RUnlock()
	var self *runtime.Node
	others := false
	for i, n := range nodes {
		switch {
		case n == nil:
		case !member && i == int(id):
			self = n
		case n.CurrentView().Contains(id) != member:
			return false
		default:
			others = true
		}
	}
	if others || self == nil {
		return others
	}
	return !self.CurrentView().Contains(id)
}

// onViewChange observes every applied view at every local process (the
// runtime's OnConfig hook, on the event loop of the node whose TCP
// transport — nil in memory — is tcp): an admission grows the slot
// tables, teaches the transport the joiner's address and spawns a
// pending local joiner; a removal takes the member's address away, which
// retires its transport peer (an ID admitted again gets it back); every
// change wakes Add/Remove waiters.
func (c *Cluster) onViewChange(tcp *transport.TCP, v member.View, op member.Op) {
	switch {
	case op.Kind == member.OpAdd:
		c.admit(tcp, v, op)
	case op.Kind == member.OpRemove && tcp != nil:
		c.mu.Lock()
		if int(op.Target) < len(c.addrs) {
			c.addrs[op.Target] = ""
			tcp.SetAddrs(c.addrs)
		}
		c.mu.Unlock()
	}
	c.viewPulse()
}

// admit applies one decided OpAdd to the driver state. A pending joiner
// is started exactly once, asynchronously (a node spawn opens logs and
// starts goroutines — not event-loop work).
func (c *Cluster) admit(tcp *transport.TCP, v member.View, op member.Op) {
	id := op.Target
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.grow(int(id) + 1)
	if tcp != nil && op.Addr != "" && c.addrs[id] != op.Addr {
		c.addrs[id] = op.Addr
		tcp.SetAddrs(c.addrs)
	}
	spawn := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if !spawn {
		return
	}
	view := v
	view.Members = append([]ProcessID(nil), v.Members...)
	go func() {
		node, err := c.startNode(id, &view)
		c.mu.Lock()
		switch {
		case err != nil:
			c.spawnErr[id] = err
		case c.closed:
			c.mu.Unlock()
			_ = node.Close()
			c.viewPulse()
			return
		default:
			c.nodes[id] = node
		}
		c.mu.Unlock()
		c.viewPulse()
	}()
}

// viewChanged returns a channel closed at the next view change or spawn.
func (c *Cluster) viewChanged() <-chan struct{} {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	return c.viewCh
}

// viewPulse wakes every Add/Remove waiter.
func (c *Cluster) viewPulse() {
	c.viewMu.Lock()
	close(c.viewCh)
	c.viewCh = make(chan struct{})
	c.viewMu.Unlock()
}

// Applier returns process p's state machine applier: apply results,
// read-your-writes waits (Applier.Await) and canonical state digests. It
// returns nil without WithStateMachine, for remote TCP peers, and for
// crashed processes.
func (c *Cluster) Applier(p int) *Applier {
	node, err := c.node(p)
	if err != nil {
		return nil
	}
	return node.Applier()
}

// Obs returns process p's observability recorder (latency histograms and
// the sampled lifecycle trace). It returns nil without WithObservability,
// for remote TCP peers, and for out-of-range indexes. Recorders survive
// Crash/Restart, accumulating across incarnations.
func (c *Cluster) Obs(p int) *ObsRecorder {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if p < 0 || p >= len(c.obsRecs) {
		return nil
	}
	return c.obsRecs[p]
}

// Close shuts the cluster down. Delivery streams drain what is buffered
// and then close. Close is idempotent.
func (c *Cluster) Close() error {
	c.lifecycle.Lock()
	defer c.lifecycle.Unlock()
	c.mu.Lock()
	c.closed = true
	nodes := append([]*runtime.Node(nil), c.nodes...)
	for i := range c.nodes {
		c.nodes[i] = nil
	}
	c.mu.Unlock()
	var first error
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.hub.Close()
	return first
}

// DefaultConfig returns the protocol tunables used in the paper's
// evaluation for a group of n processes.
func DefaultConfig(n int) Config { return engine.DefaultConfig(n) }
