// Package trace provides the per-process counters that tie the running
// system back to the paper's analytical model (§5.2): messages sent,
// bytes sent, application payload bytes, layer-event dispatches, consensus
// instances, and batch sizes.
//
// Counters are written by engines on their own single-threaded event loop
// and read by harnesses after quiescence (simulation) or via Snapshot
// (real time), so reads under concurrency use atomic loads.
package trace

import (
	"fmt"
	"reflect"
	"sync/atomic"
)

// Counters accumulates the measurable activity of one process. The zero
// value is ready to use.
type Counters struct {
	// MsgsSent counts point-to-point sends handed to the transport.
	MsgsSent atomic.Int64
	// BytesSent counts the total wire bytes (headers included) handed to
	// the transport.
	BytesSent atomic.Int64
	// PayloadBytesSent counts only application payload bytes inside sends,
	// the l-denominated quantity of §5.2.2.
	PayloadBytesSent atomic.Int64
	// MsgsRecv counts messages received from the transport.
	MsgsRecv atomic.Int64
	// BytesRecv counts wire bytes received.
	BytesRecv atomic.Int64
	// Dispatches counts intra-stack event dispatches (layer crossings).
	// In the modular stack every inter-module event costs a dispatch; the
	// monolithic engine performs essentially one per network message.
	Dispatches atomic.Int64
	// ConsensusStarted counts consensus instances begun locally.
	ConsensusStarted atomic.Int64
	// ConsensusDecided counts consensus instances decided locally.
	ConsensusDecided atomic.Int64
	// Rounds counts consensus round changes beyond the first round
	// (0 in good runs: a new round starts only on suspicion).
	Rounds atomic.Int64
	// ABCast counts application messages accepted by Abcast locally.
	ABCast atomic.Int64
	// ADeliver counts application messages adelivered locally.
	ADeliver atomic.Int64
	// BatchedMsgs sums the sizes of decided batches (numerator of the
	// average M messages ordered per consensus).
	BatchedMsgs atomic.Int64
	// SenderBatches counts sender-side batches sealed by the batching
	// accumulator and handed to the ordering path (0 with batching
	// disabled).
	SenderBatches atomic.Int64
	// SenderBatchedMsgs sums the application messages carried by those
	// sender-side batches (numerator of the msgs/batch average).
	SenderBatchedMsgs atomic.Int64
	// ConcurrentInstances sums, over every consensus proposal this process
	// issued, the number of its own in-flight (proposed, not yet decided)
	// instances right after the proposal — the numerator of the average
	// pipeline depth. Sequential operation contributes exactly 1 per
	// proposal. PipelineProposals counts those samples (the denominator);
	// it differs from ConsensusStarted because a proposal for an instance
	// whose initial value another process already supplied still occupies
	// a window slot without "starting" the instance.
	ConcurrentInstances atomic.Int64
	// PipelineProposals counts the proposals sampled into
	// ConcurrentInstances.
	PipelineProposals atomic.Int64
	// PipelineDepthObserved is the high-water mark of concurrently
	// in-flight consensus instances at this process (1 in sequential
	// operation; up to engine.Config.PipelineDepth with pipelining).
	PipelineDepthObserved atomic.Int64
	// Retransmissions counts recovery-path sends (decision refetch,
	// rbcast relay duplicates suppressed, etc.).
	Retransmissions atomic.Int64
	// StreamDropped counts adeliveries discarded by a delivery-stream
	// subscriber running the drop overflow policy — nonzero means the
	// application could not keep up with the ordering layer.
	StreamDropped atomic.Int64
	// Recoveries counts engine starts that replayed a write-ahead log
	// (crash-recovery restarts).
	Recoveries atomic.Int64
	// RecoveryReplayedMsgs counts adelivered messages reconstructed from
	// the local log during restart (not re-delivered to the application).
	RecoveryReplayedMsgs atomic.Int64
	// RecoveryFetchedMsgs counts messages in decisions fetched from live
	// peers during state-transfer catch-up (these are adelivered, since the
	// crashed incarnation never saw them).
	RecoveryFetchedMsgs atomic.Int64
	// RecoveryNanos accumulates the time from recovery start to catch-up
	// completion, in nanoseconds of the driver's clock (virtual time under
	// simulation).
	RecoveryNanos atomic.Int64
	// Applied counts delivered application messages applied to the local
	// state machine (internal/rsm; 0 when no state machine is attached).
	Applied atomic.Int64
	// SnapshotsTaken counts state machine snapshots persisted locally at
	// instance boundaries.
	SnapshotsTaken atomic.Int64
	// SnapshotInstalls counts peer snapshots installed during recovery
	// (the far-behind path that replaces per-instance catch-up).
	SnapshotInstalls atomic.Int64
	// SnapshotInstallNanos accumulates the time from the first snapshot
	// chunk request to install completion, in driver-clock nanoseconds.
	SnapshotInstallNanos atomic.Int64
	// WalTruncatedSegments counts write-ahead-log segments freed below the
	// snapshot horizon.
	WalTruncatedSegments atomic.Int64
	// DroppedByFault counts transmission attempts discarded by an injected
	// link fault (partition or probabilistic drop), charged to the sender.
	// The simulated link retries dropped transmissions, so one message can
	// contribute several drops before it finally arrives.
	DroppedByFault atomic.Int64
	// DupedByFault counts extra deliveries injected by a link duplication
	// fault, charged to the sender.
	DupedByFault atomic.Int64
	// ReorderedByFault counts messages given a bounded extra skew by a link
	// reordering fault, charged to the sender.
	ReorderedByFault atomic.Int64
	// PartitionNanos accumulates, per sender, the virtual time its outbound
	// directed links spent fully partitioned (summed over links; a closed
	// window is accounted when it ends). PartitionSecs reports it in
	// seconds.
	PartitionNanos atomic.Int64
	// OrderedBytes counts the wire bytes of ordering-path frames this
	// process sent: consensus proposals/estimates/acks/nacks and decision
	// dissemination. Under digest ordering these frames carry compact
	// descriptors, so OrderedBytes stops scaling with payload size — the
	// ordered-vs-disseminated split of the `-fig digest` benchmark.
	OrderedBytes atomic.Int64
	// DisseminatedBytes counts the wire bytes of payload dissemination
	// frames this process sent (diffusion/announce frames, relay wrapping
	// included, and payload-fetch re-serves), multiplied by fanout.
	DisseminatedBytes atomic.Int64
	// PayloadFetches counts decided-but-not-resident repairs: a decided
	// descriptor whose payload had to be refetched from a live holder
	// before adelivery (digest ordering only).
	PayloadFetches atomic.Int64
	// PayloadFetchNanos accumulates the time adelivery was blocked waiting
	// for a non-resident payload, from the blocking decide to residency,
	// in driver-clock nanoseconds.
	PayloadFetchNanos atomic.Int64
	// ConfigChanges counts membership changes applied locally: a decided
	// add/remove op that passed its epoch check and produced a new view.
	ConfigChanges atomic.Int64
	// PayloadsRetired counts undelivered payload-store entries dropped at
	// a membership remove boundary: announced batches of a removed origin
	// that no surviving proposal will ever order (digest ordering only).
	PayloadsRetired atomic.Int64
	// PayloadStoreMsgs, PayloadStoreBytes, DescriptorsRetained and
	// InstancesRetained are high-water marks of what horizon retention
	// keeps in memory, sampled at every commit: the payload store's
	// resident messages and body bytes and the tail's decided-descriptor
	// set (digest ordering only), and the engine's instance map. Each
	// stays under DecisionHorizon × batch + n × window by construction
	// (package payload); a value climbing past that is a retention leak.
	PayloadStoreMsgs    atomic.Int64
	PayloadStoreBytes   atomic.Int64
	DescriptorsRetained atomic.Int64
	InstancesRetained   atomic.Int64
	// The TCP transport's send queues: the high-water mark of the bytes
	// queued for one peer (under the 8 MiB cap but for a lone larger frame),
	// the frames shed unsent past that cap, and the failed dials.
	TransportQueuedBytes  atomic.Int64
	TransportShedFrames   atomic.Int64
	TransportDialFailures atomic.Int64
}

// gauges names the counters that are high-water marks: they aggregate as
// a max, not a sum, and export as Prometheus gauges.
var gauges = map[string]bool{
	"PipelineDepthObserved": true,
	"PayloadStoreMsgs":      true,
	"PayloadStoreBytes":     true,
	"DescriptorsRetained":   true,
	"InstancesRetained":     true,
	"TransportQueuedBytes":  true,
}

// IsGauge reports whether the named counter is a high-water mark.
func IsGauge(name string) bool { return gauges[name] }

// Snapshot is an immutable copy of the counters at one instant.
type Snapshot struct {
	MsgsSent              int64
	BytesSent             int64
	PayloadBytesSent      int64
	MsgsRecv              int64
	BytesRecv             int64
	Dispatches            int64
	ConsensusStarted      int64
	ConsensusDecided      int64
	Rounds                int64
	ABCast                int64
	ADeliver              int64
	BatchedMsgs           int64
	SenderBatches         int64
	SenderBatchedMsgs     int64
	ConcurrentInstances   int64
	PipelineProposals     int64
	PipelineDepthObserved int64
	Retransmissions       int64
	StreamDropped         int64
	Recoveries            int64
	RecoveryReplayedMsgs  int64
	RecoveryFetchedMsgs   int64
	RecoveryNanos         int64
	Applied               int64
	SnapshotsTaken        int64
	SnapshotInstalls      int64
	SnapshotInstallNanos  int64
	WalTruncatedSegments  int64
	DroppedByFault        int64
	DupedByFault          int64
	ReorderedByFault      int64
	PartitionNanos        int64
	OrderedBytes          int64
	DisseminatedBytes     int64
	PayloadFetches        int64
	PayloadFetchNanos     int64
	ConfigChanges         int64
	PayloadsRetired       int64
	PayloadStoreMsgs      int64
	PayloadStoreBytes     int64
	DescriptorsRetained   int64
	InstancesRetained     int64
	TransportQueuedBytes  int64
	TransportShedFrames   int64
	TransportDialFailures int64
}

// Snapshot returns a consistent-enough copy for reporting (each field is
// individually atomic; cross-field exactness is only guaranteed at
// quiescence). Snapshot's fields are Counters', in the same order.
func (c *Counters) Snapshot() Snapshot {
	var s Snapshot
	cv, sv := reflect.ValueOf(c).Elem(), reflect.ValueOf(&s).Elem()
	for i := range cv.NumField() {
		sv.Field(i).SetInt(cv.Field(i).Addr().Interface().(*atomic.Int64).Load())
	}
	return s
}

// Add accumulates another snapshot into s (for group-wide totals). High-
// water marks aggregate as a max, not a sum: the group-wide value is the
// deepest pipeline any process ran, the most any process retained.
func (s *Snapshot) Add(o Snapshot) {
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i := range sv.NumField() {
		a, b := sv.Field(i).Int(), ov.Field(i).Int()
		if IsGauge(sv.Type().Field(i).Name) {
			sv.Field(i).SetInt(max(a, b))
		} else {
			sv.Field(i).SetInt(a + b)
		}
	}
}

// Stats is a uniform whole-driver snapshot: one Snapshot per process
// plus the group-wide totals. Every driver (real-time group, TCP node,
// simulated cluster) exposes it the same way, so harnesses can compare
// stacks and drivers without caring which one produced the numbers.
type Stats struct {
	// N is the group size.
	N int
	// PerProcess holds one snapshot per process, indexed by ProcessID.
	PerProcess []Snapshot
	// Total is the sum over PerProcess, plus any driver-level activity
	// not attributable to a single process (e.g. drops at a group-wide
	// delivery stream).
	Total Snapshot
}

// AvgBatch returns the measured M: average messages ordered per decided
// consensus instance (0 when nothing decided).
func (s Snapshot) AvgBatch() float64 {
	if s.ConsensusDecided == 0 {
		return 0
	}
	return float64(s.BatchedMsgs) / float64(s.ConsensusDecided)
}

// MsgsPerSenderBatch returns the average number of application messages
// per sealed sender-side batch — the amortization factor bought by
// batching (0 when batching never sealed a batch).
func (s Snapshot) MsgsPerSenderBatch() float64 {
	if s.SenderBatches == 0 {
		return 0
	}
	return float64(s.SenderBatchedMsgs) / float64(s.SenderBatches)
}

// ObserveDepth records one pipeline-depth sample at proposal time: depth
// accumulates into ConcurrentInstances and raises the
// PipelineDepthObserved high-water mark.
func (c *Counters) ObserveDepth(depth int) {
	c.ConcurrentInstances.Add(int64(depth))
	c.PipelineProposals.Add(1)
	Raise(&c.PipelineDepthObserved, depth)
}

// Raise lifts high-water mark g to v if v is higher. It is safe for
// concurrent writers (a transport's senders); harnesses only read.
func Raise(g *atomic.Int64, v int) {
	for cur := g.Load(); int64(v) > cur && !g.CompareAndSwap(cur, int64(v)); cur = g.Load() {
	}
}

// AvgPipelineDepth returns the average number of in-flight consensus
// instances per proposal (1.0 in sequential operation, up to the
// configured pipeline depth under saturation; 0 when nothing proposed).
func (s Snapshot) AvgPipelineDepth() float64 {
	if s.PipelineProposals == 0 {
		return 0
	}
	return float64(s.ConcurrentInstances) / float64(s.PipelineProposals)
}

// HeaderBytesPerMsg returns the protocol overhead on the wire — total
// bytes sent minus application payload bytes — per abcast application
// message. This is the per-message cost of modularity the paper's §5.2.2
// analysis predicts and sender-side batching amortizes; compare the value
// with batching on and off. Meaningful on group-wide totals (ABCast then
// counts each distinct application message once).
func (s Snapshot) HeaderBytesPerMsg() float64 {
	if s.ABCast == 0 {
		return 0
	}
	return float64(s.BytesSent-s.PayloadBytesSent) / float64(s.ABCast)
}

// OrderedBytesPerMsg returns the ordering-path wire bytes spent per
// adelivered application message — the quantity digest ordering collapses
// (a 1000-message batch orders as one ~32-byte descriptor). Meaningful on
// group-wide totals.
func (s Snapshot) OrderedBytesPerMsg() float64 {
	if s.ADeliver == 0 {
		return 0
	}
	return float64(s.OrderedBytes) / float64(s.ADeliver)
}

// DisseminatedBytesPerMsg returns the payload-dissemination wire bytes per
// adelivered application message. Meaningful on group-wide totals.
func (s Snapshot) DisseminatedBytesPerMsg() float64 {
	if s.ADeliver == 0 {
		return 0
	}
	return float64(s.DisseminatedBytes) / float64(s.ADeliver)
}

// String implements fmt.Stringer with the headline counters.
func (s Snapshot) String() string {
	out := fmt.Sprintf("sent=%d (%d B, payload %d B) recv=%d consensus=%d/%d avgM=%.2f dispatches=%d",
		s.MsgsSent, s.BytesSent, s.PayloadBytesSent, s.MsgsRecv,
		s.ConsensusDecided, s.ConsensusStarted, s.AvgBatch(), s.Dispatches)
	if s.SenderBatches > 0 {
		out += fmt.Sprintf(" msgs/batch=%.2f", s.MsgsPerSenderBatch())
	}
	if s.PipelineDepthObserved > 1 {
		out += fmt.Sprintf(" pipeline=%d (avg %.2f)", s.PipelineDepthObserved, s.AvgPipelineDepth())
	}
	if s.StreamDropped > 0 {
		out += fmt.Sprintf(" streamDropped=%d", s.StreamDropped)
	}
	if s.Recoveries > 0 {
		out += fmt.Sprintf(" recoveries=%d (replayed=%d fetched=%d in %.1fms)",
			s.Recoveries, s.RecoveryReplayedMsgs, s.RecoveryFetchedMsgs,
			float64(s.RecoveryNanos)/1e6)
	}
	if s.SnapshotsTaken > 0 || s.SnapshotInstalls > 0 {
		out += fmt.Sprintf(" snapshots{applied=%d taken=%d installed=%d in %.1fms walTrunc=%d}",
			s.Applied, s.SnapshotsTaken, s.SnapshotInstalls,
			float64(s.SnapshotInstallNanos)/1e6, s.WalTruncatedSegments)
	}
	if s.PayloadFetches > 0 {
		out += fmt.Sprintf(" payloadFetches=%d (blocked %.1fms)",
			s.PayloadFetches, float64(s.PayloadFetchNanos)/1e6)
	}
	if s.DroppedByFault > 0 || s.DupedByFault > 0 || s.ReorderedByFault > 0 || s.PartitionNanos > 0 {
		out += fmt.Sprintf(" faults{dropped=%d duped=%d reordered=%d partition=%.2fs}",
			s.DroppedByFault, s.DupedByFault, s.ReorderedByFault, s.PartitionSecs())
	}
	return out
}

// PartitionSecs returns the accumulated outbound-link partition time in
// seconds (the chaos figure's partition-exposure column).
func (s Snapshot) PartitionSecs() float64 {
	return float64(s.PartitionNanos) / 1e9
}
