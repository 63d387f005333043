// Package obs is the end-to-end observability layer: latency histograms
// and a sampled message lifecycle tracer, recorded at fixed points in
// the stacks and exposed live over HTTP (see http.go).
//
// # Recording points
//
// The histograms cover the hot paths of the paper's §5.2 cost model:
//
//	Deliver  — abcast admission → adelivery, measured at the submitter
//	           (the paper's latency metric, as a distribution);
//	Apply    — time spent inside the state machine apply call;
//	Fsync    — write-ahead-log fsync duration (real-time drivers only);
//	Recovery — crash-recovery catch-up duration;
//	Install  — snapshot fetch+install duration.
//
// All timestamps come from the driver clock (engine.Env.Now), so under
// the deterministic simulator the histograms are measured in virtual
// time and are bit-for-bit reproducible for a given seed; recording
// never sends a message or arms a timer, so the golden-trace
// fingerprints are identical with observability on or off.
//
// The tracer follows one in every Config.SampleEvery application
// messages per sender (chosen by sequence number, so every process
// samples the same messages without coordination) through the named
// lifecycle stages accept → seal → propose → decide → adeliver → apply,
// into a bounded per-process ring buffer. abbench dumps it with
// -trace-sample, and the chaos harness attaches it to violation reports.
//
// # Cost when disabled
//
// Every Recorder and Histogram method is nil-safe: a site compiled
// against a nil recorder costs exactly one nil check, which is what
// keeps the saturating-load throughput of the benchmarks inside noise.
package obs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"modab/internal/types"
)

// Lifecycle stage names, in causal order at the message's origin.
const (
	// StageAccept marks flow-control admission at the sender.
	StageAccept = "accept"
	// StageSeal marks the sender-side batch carrying the message sealing.
	StageSeal = "seal"
	// StagePropose marks the message joining a consensus proposal.
	StagePropose = "propose"
	// StageDecide marks the instance carrying the message deciding.
	StageDecide = "decide"
	// StageADeliver marks adelivery to the application.
	StageADeliver = "adeliver"
	// StageApply marks the state machine apply completing.
	StageApply = "apply"
)

// DefaultSampleEvery is the default lifecycle sampling period: one in
// every 32 messages per sender is traced.
const DefaultSampleEvery = 32

// defaultTraceCap bounds the per-process stage-event ring buffer.
const defaultTraceCap = 4096

// Config tunes a Recorder. The zero value selects the defaults.
type Config struct {
	// SampleEvery traces every SampleEvery-th message of each sender
	// (by sequence number); 0 selects DefaultSampleEvery.
	SampleEvery uint64
	// TraceCap bounds the stage-event ring buffer; 0 selects the
	// default (4096 events). The oldest events are overwritten.
	TraceCap int
}

func (c Config) withDefaults() Config {
	if c.SampleEvery == 0 {
		c.SampleEvery = DefaultSampleEvery
	}
	if c.TraceCap <= 0 {
		c.TraceCap = defaultTraceCap
	}
	return c
}

// StageEvent is one recorded lifecycle point of a sampled message.
type StageEvent struct {
	ID    types.MsgID
	Stage string
	At    time.Duration
}

// String implements fmt.Stringer as "stage@t".
func (e StageEvent) String() string { return fmt.Sprintf("%s@%v", e.Stage, e.At) }

// Recorder is one process's observability state: the latency histograms
// (lock-free, scrapeable mid-run) and the sampled lifecycle tracer
// (mutex-guarded ring buffer). All methods are nil-safe.
type Recorder struct {
	// Deliver is the abcast→adeliver latency of this process's own
	// messages, measured at the submitter in driver-clock time.
	Deliver Histogram
	// Apply is the per-command state machine apply duration.
	Apply Histogram
	// Fsync is the write-ahead-log fsync duration (wall clock; the
	// simulator's in-memory store never fsyncs).
	Fsync Histogram
	// Recovery is the crash-recovery catch-up duration.
	Recovery Histogram
	// Install is the snapshot fetch+install duration.
	Install Histogram
	// PayloadFetch is the time adelivery of a decided descriptor was
	// blocked waiting for its payload to become resident (digest ordering
	// only; the submit→adeliver Deliver histogram already includes this
	// wait, because Delivered is recorded at payload-resident delivery,
	// never at digest decide).
	PayloadFetch Histogram

	cfg Config

	mu        sync.Mutex
	submitted map[types.MsgID]time.Duration
	ring      []StageEvent
	next      int // overwrite cursor once len(ring) == TraceCap
}

// NewRecorder builds a recorder with the given config.
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{
		cfg:       cfg.withDefaults(),
		submitted: make(map[types.MsgID]time.Duration),
	}
}

// SampleEvery returns the effective sampling period (0 on a nil
// recorder).
func (r *Recorder) SampleEvery() uint64 {
	if r == nil {
		return 0
	}
	return r.cfg.SampleEvery
}

// Sampled reports whether the message's lifecycle is traced. The rule
// depends only on the message ID, so every process samples the same
// messages without coordination.
func (r *Recorder) Sampled(id types.MsgID) bool {
	if r == nil {
		return false
	}
	return id.Seq%r.cfg.SampleEvery == 0
}

// pushLocked appends one stage event to the ring, overwriting the
// oldest once full. Caller holds mu.
func (r *Recorder) pushLocked(e StageEvent) {
	if len(r.ring) < r.cfg.TraceCap {
		r.ring = append(r.ring, e)
		return
	}
	r.ring[r.next] = e
	r.next = (r.next + 1) % r.cfg.TraceCap
}

// Stage records one lifecycle point of a sampled message; unsampled
// messages cost one modulo.
func (r *Recorder) Stage(id types.MsgID, stage string, now time.Duration) {
	if r == nil || !r.Sampled(id) {
		return
	}
	r.mu.Lock()
	r.pushLocked(StageEvent{ID: id, Stage: stage, At: now})
	r.mu.Unlock()
}

// Submitted records a local abcast admission: the submit timestamp that
// anchors the Deliver histogram, plus the accept stage when sampled.
func (r *Recorder) Submitted(id types.MsgID, now time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.submitted[id] = now
	if r.Sampled(id) {
		r.pushLocked(StageEvent{ID: id, Stage: StageAccept, At: now})
	}
	r.mu.Unlock()
}

// Delivered records an adelivery: the adeliver stage when sampled, and —
// for this process's own messages — one Deliver histogram sample.
func (r *Recorder) Delivered(id types.MsgID, now time.Duration) {
	if r == nil {
		return
	}
	var lat time.Duration
	have := false
	r.mu.Lock()
	if t0, ok := r.submitted[id]; ok {
		lat, have = now-t0, true
		delete(r.submitted, id)
	}
	if r.Sampled(id) {
		r.pushLocked(StageEvent{ID: id, Stage: StageADeliver, At: now})
	}
	r.mu.Unlock()
	if have {
		r.Deliver.Observe(lat)
	}
}

// Applied records one state machine apply spanning [start, end] in
// driver-clock time.
func (r *Recorder) Applied(id types.MsgID, start, end time.Duration) {
	if r == nil {
		return
	}
	r.Apply.Observe(end - start)
	r.Stage(id, StageApply, end)
}

// FsyncObserved records one write-ahead-log fsync duration.
func (r *Recorder) FsyncObserved(d time.Duration) {
	if r == nil {
		return
	}
	r.Fsync.Observe(d)
}

// RecoveryObserved records one completed crash-recovery catch-up.
func (r *Recorder) RecoveryObserved(d time.Duration) {
	if r == nil {
		return
	}
	r.Recovery.Observe(d)
}

// InstallObserved records one completed snapshot fetch+install.
func (r *Recorder) InstallObserved(d time.Duration) {
	if r == nil {
		return
	}
	r.Install.Observe(d)
}

// PayloadFetchObserved records one decided-but-not-resident wait: the
// time from the blocking decide to the payload becoming resident.
func (r *Recorder) PayloadFetchObserved(d time.Duration) {
	if r == nil {
		return
	}
	r.PayloadFetch.Observe(d)
}

// TraceEvents returns the recorded stage events, oldest first.
func (r *Recorder) TraceEvents() []StageEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]StageEvent, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Histograms returns the recorder's named histograms in stable order
// (exposition and reports iterate it).
func (r *Recorder) Histograms() []NamedHistogram {
	if r == nil {
		return nil
	}
	return []NamedHistogram{
		{"deliver", &r.Deliver},
		{"apply", &r.Apply},
		{"fsync", &r.Fsync},
		{"recovery", &r.Recovery},
		{"install", &r.Install},
		{"payload_fetch", &r.PayloadFetch},
	}
}

// NamedHistogram pairs a histogram with its exposition name.
type NamedHistogram struct {
	Name string
	H    *Histogram
}

// Timeline is the ordered stage history of one traced message at one
// process.
type Timeline struct {
	ID     types.MsgID
	Events []StageEvent
}

// String implements fmt.Stringer as "p0#32: accept@1ms seal@1ms ...".
func (t Timeline) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", t.ID)
	for _, e := range t.Events {
		fmt.Fprintf(&b, " %s", e)
	}
	return b.String()
}

// Timelines groups a stage-event dump per message, ordered by message ID
// (events within a message keep recording order).
func Timelines(evs []StageEvent) []Timeline {
	byID := make(map[types.MsgID][]StageEvent)
	for _, e := range evs {
		byID[e.ID] = append(byID[e.ID], e)
	}
	out := make([]Timeline, 0, len(byID))
	for id, es := range byID {
		out = append(out, Timeline{ID: id, Events: es})
	}
	slices.SortFunc(out, func(a, b Timeline) int { return a.ID.Compare(b.ID) })
	return out
}
