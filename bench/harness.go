package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"modab"
	"modab/internal/abcast"
	"modab/internal/consensus"
	"modab/internal/engine"
	"modab/internal/monolithic"
	"modab/internal/rbcast"
	"modab/internal/rsm"
	"modab/internal/stack"
	"modab/internal/stream"
	"modab/internal/trace"
	"modab/internal/types"
	"modab/internal/wal"
	"modab/internal/wire"
)

// The deterministic layer harness: n engines in one goroutine over a
// bench-owned engine.Env, a manual clock and a seeded FIFO network. It is
// where a layer's own time can be told apart from the time of what it calls:
// every call into a layer, and every call a layer makes out through
// Env.Send, Env.Deliver and the Persister, is a span, timed from outside the
// program. Counts from here repeat exactly for a seed.

// span is one timed call. Times are wall-clock ns since the harness began.
type span struct {
	Name   string `json:"name"`
	Proc   int    `json:"proc"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span; -1 = an engine entry point
	Msg    string `json:"msg,omitempty"`
}

// spanKeep bounds the spans kept for the trace file; self times are
// accumulated over all of them.
const spanKeep = 50000

// tracer accumulates self time per span name and keeps the first spans.
type tracer struct {
	t0    time.Time
	open  []openSpan // the current call stack
	kept  []span
	count int
	self  map[string]int64 // name → total self ns
	total map[string]int64 // name → total ns
	calls map[string]int64
}

type openSpan struct {
	name     string
	proc     int
	start    int64
	children int64 // ns covered by child spans
	index    int   // in kept, or -1
	msg      string
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), self: map[string]int64{}, total: map[string]int64{}, calls: map[string]int64{}}
}

func (t *tracer) begin(name string, proc int) {
	parent := -1
	if k := len(t.open); k > 0 {
		parent = t.open[k-1].index
	}
	idx := -1
	if t.count < spanKeep {
		idx = len(t.kept)
		t.kept = append(t.kept, span{Name: name, Proc: proc, Parent: parent})
	}
	t.count++
	t.open = append(t.open, openSpan{name: name, proc: proc, index: idx, start: int64(time.Since(t.t0))})
}

// tag names the message the innermost open span is about.
func (t *tracer) tag(id types.MsgID) {
	if o := &t.open[len(t.open)-1]; o.index >= 0 {
		o.msg = id.String()
	}
}

func (t *tracer) end() {
	now := int64(time.Since(t.t0))
	k := len(t.open) - 1
	o := t.open[k]
	t.open = t.open[:k]
	d := now - o.start
	t.self[o.name] += d - o.children
	t.total[o.name] += d
	t.calls[o.name]++
	if k > 0 {
		t.open[k-1].children += d
	}
	if o.index >= 0 {
		s := &t.kept[o.index]
		s.Start, s.End, s.Msg = o.start, now, o.msg
	}
}

// tracedLayer times the calls into one stack.Layer.
type tracedLayer struct {
	stack.Layer
	t    *tracer
	proc int
	name string
}

func (l *tracedLayer) Event(ev stack.Event) {
	l.t.begin(l.name+".event", l.proc)
	l.Layer.Event(ev)
	l.t.end()
}

func (l *tracedLayer) Receive(from types.ProcessID, data []byte) error {
	l.t.begin(l.name+".receive", l.proc)
	err := l.Layer.Receive(from, data)
	l.t.end()
	return err
}

func (l *tracedLayer) Timer(id engine.TimerID) {
	l.t.begin(l.name+".timer", l.proc)
	l.Layer.Timer(id)
	l.t.end()
}

// tracedPersister times the engines' calls into the real write-ahead log.
type tracedPersister struct {
	log  *wal.Log
	t    *tracer
	proc int
	// calls counts appends; under SyncAlways each one is a sync call.
	calls int64
}

func (p *tracedPersister) PersistAdmit(b wire.Batch) {
	p.t.begin("wal.admit", p.proc)
	p.log.PersistAdmit(b)
	p.t.end()
	p.calls++
}

func (p *tracedPersister) PersistDecision(k uint64, b wire.Batch) {
	p.t.begin("wal.decision", p.proc)
	p.log.PersistDecision(k, b)
	p.t.end()
	p.calls++
}

func (p *tracedPersister) ReadDecision(k uint64) (wire.Batch, bool) { return p.log.ReadDecision(k) }

// netMsg is one frame in flight.
type netMsg struct {
	from types.ProcessID
	data []byte
}

// harness is one deterministic run.
type harness struct {
	n      int
	t      *tracer
	r      *rand.Rand
	clock  time.Duration
	envs   []*hEnv
	links  [][]netMsg // links[from*n+to], FIFO
	busy   []int      // indexes of non-empty links
	timers []hTimer
	seq    int64 // tie-break for timers armed for the same instant
}

type hTimer struct {
	at   time.Duration
	seq  int64
	proc int
	id   engine.TimerID
	gen  uint64
}

// hEnv is the bench-owned engine.Env of one process.
type hEnv struct {
	h     *harness
	self  types.ProcessID
	cnt   trace.Counters
	eng   engine.Engine
	gens  map[engine.TimerID]uint64
	app   *rsm.Applier
	hub   *stream.Hub[engine.Delivery]
	own   int64 // own messages adelivered here
	total int64 // messages adelivered here
}

var _ engine.Env = (*hEnv)(nil)

func (e *hEnv) Self() types.ProcessID     { return e.self }
func (e *hEnv) N() int                    { return e.h.n }
func (e *hEnv) Now() time.Duration        { return e.h.clock }
func (e *hEnv) Counters() *trace.Counters { return &e.cnt }

func (e *hEnv) Send(to types.ProcessID, data []byte) {
	if to == e.self {
		return
	}
	e.h.t.begin("env.send", int(e.self))
	e.cnt.MsgsSent.Add(1)
	e.cnt.BytesSent.Add(int64(len(data)))
	l := int(e.self)*e.h.n + int(to)
	if len(e.h.links[l]) == 0 {
		e.h.busy = append(e.h.busy, l)
	}
	e.h.links[l] = append(e.h.links[l], netMsg{from: e.self, data: append([]byte(nil), data...)})
	e.h.t.end()
}

func (e *hEnv) SetTimer(id engine.TimerID, d time.Duration) {
	e.gens[id]++
	e.h.seq++
	e.h.timers = append(e.h.timers, hTimer{at: e.h.clock + d, seq: e.h.seq, proc: int(e.self), id: id, gen: e.gens[id]})
}

func (e *hEnv) CancelTimer(id engine.TimerID) { e.gens[id]++ }

func (e *hEnv) Deliver(d engine.Delivery) {
	t := e.h.t
	t.begin("env.deliver", int(e.self))
	t.tag(d.Msg.ID)
	if e.app != nil {
		t.begin("rsm.apply", int(e.self))
		e.app.Apply(d)
		t.end()
	}
	t.begin("stream.publish", int(e.self))
	e.hub.Publish(d)
	t.end()
	e.total++
	if d.Msg.ID.Sender == e.self {
		e.own++
	}
	t.end()
}

// harnessConfig selects what one harness run builds.
type harnessConfig struct {
	w      workload
	stack  modab.Stack
	n      int
	msgs   int
	seed   uint64
	walDir string
}

// harnessResult is what one run measured. Every field but the ns ones
// repeats exactly for a seed.
type harnessResult struct {
	msgs      int64
	counters  trace.Snapshot // summed over processes
	decided   int64          // instances decided at process 0
	walCalls  int64          // appends (= sync calls under SyncAlways), all processes
	walBytes  int64          // bytes in the logs at the end, all processes
	rootNs    int64          // total time inside engine entry points
	selfNs    map[string]int64
	calls     map[string]int64
	mallocs   uint64
	spans     []span
	spanTotal int
	batchMsgs float64 // average sender-batch size (1 without batching)
}

func runHarness(hc harnessConfig) (*harnessResult, error) {
	h := &harness{
		n:     hc.n,
		t:     newTracer(),
		r:     rand.New(rand.NewPCG(hc.seed, 0x6861726e)),
		links: make([][]netMsg, hc.n*hc.n),
	}
	in := newInputs(hc.w, hc.seed)
	cfg := hc.w.engineConfig(hc.n)
	var persisters []*tracedPersister
	var logs []*wal.Log
	dir := ""
	if hc.w.durable {
		var err error
		if dir, err = os.MkdirTemp(hc.walDir, "harness-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	defer func() {
		for _, e := range h.envs {
			e.hub.Close()
		}
		for _, l := range logs {
			_ = l.Close() // scratch log of a finished run
		}
	}()
	for p := 0; p < hc.n; p++ {
		e := &hEnv{h: h, self: types.ProcessID(p), gens: map[engine.TimerID]uint64{}}
		e.hub = stream.NewHub[engine.Delivery](streamBuffer, stream.Block, nil)
		sub := e.hub.Subscribe()
		go func() { // the one draining subscriber; it never touches an engine
			for range sub.C() {
			}
		}()
		pcfg := cfg
		if hc.w.durable {
			log, err := wal.Open(filepath.Join(dir, fmt.Sprintf("p%d", p)), wal.Options{Policy: wal.SyncAlways})
			if err != nil {
				return nil, err
			}
			logs = append(logs, log)
			tp := &tracedPersister{log: log, t: h.t, proc: p}
			persisters = append(persisters, tp)
			pcfg.Persist = tp
		}
		if hc.w.kv() {
			opts := rsm.Options{N: hc.n, Counters: &e.cnt}
			if hc.w.snapEvery > 0 {
				store, err := rsm.OpenFileStore(filepath.Join(dir, fmt.Sprintf("p%d", p), "snap"))
				if err != nil {
					return nil, err
				}
				opts.Store, opts.Interval = store, hc.w.snapEvery
				log := logs[p]
				opts.OnSnapshot = func(snap uint64, covered func(m wire.AppMsg) bool) { log.TruncateBelow(snap, covered) }
			}
			e.app = rsm.NewApplier(rsm.NewKV(), opts)
			if hc.w.snapEvery > 0 {
				pcfg.Snapshots = e.app.Hooks()
			}
		}
		h.envs = append(h.envs, e)
		e.eng = buildEngine(h.t, e, hc.stack, pcfg)
	}
	for _, e := range h.envs {
		e.eng.Start()
	}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	window := int64(cfg.EffectiveWindow())
	submitted := make([]int64, hc.n)
	var total int64
	for {
		done := true
		for _, e := range h.envs {
			if e.total < int64(hc.msgs) {
				done = false
			}
		}
		if done {
			break
		}
		// Keep every origin's window full, like a saturating closed loop.
		for o, e := range h.envs {
			for total < int64(hc.msgs) && submitted[o]-e.own < window {
				if _, err := e.eng.Abcast(in.body(h.r)); err != nil {
					return nil, fmt.Errorf("harness: abcast at %d with %d outstanding of window %d: %w", o, submitted[o]-e.own, window, err)
				}
				submitted[o]++
				total++
			}
		}
		if !h.step() {
			return nil, fmt.Errorf("harness: stuck with %d of %d messages delivered", h.envs[0].total, hc.msgs)
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	res := &harnessResult{
		msgs:      int64(hc.msgs),
		selfNs:    h.t.self,
		calls:     h.t.calls,
		mallocs:   after.Mallocs - before.Mallocs,
		spans:     h.t.kept,
		spanTotal: h.t.count,
		batchMsgs: 1,
	}
	for _, e := range h.envs {
		res.counters.Add(e.cnt.Snapshot())
	}
	res.decided = h.envs[0].cnt.ConsensusDecided.Load()
	if res.counters.SenderBatches > 0 {
		res.batchMsgs = res.counters.MsgsPerSenderBatch()
	}
	for _, name := range []string{".abcast", ".handle_message", ".handle_timer"} {
		res.rootNs += h.t.total[stackName(hc.stack)+name]
	}
	for _, tp := range persisters {
		res.walCalls += tp.calls
	}
	for _, l := range logs {
		if err := l.Sync(); err != nil {
			return nil, err
		}
	}
	if dir != "" {
		_ = filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
			if err != nil {
				return nil
			}
			if fi.IsDir() && fi.Name() == "snap" {
				return filepath.SkipDir
			}
			if fi.Mode().IsRegular() {
				res.walBytes += fi.Size()
			}
			return nil
		})
	}
	return res, nil
}

// buildEngine composes one process's engine with its layers wrapped in
// timing decorators: the modular stack exactly as modular.New composes it,
// the monolithic engine as the single module it is.
func buildEngine(t *tracer, e *hEnv, s modab.Stack, cfg engine.Config) engine.Engine {
	p := int(e.self)
	if s == modab.Monolithic {
		return &tracedEngine{Engine: monolithic.New(e, cfg), t: t, proc: p, name: "monolithic"}
	}
	mode := rbcast.Majority
	if cfg.ClassicRBcast {
		mode = rbcast.Classic
	}
	ab := abcast.New(cfg)
	stk := stack.New(e,
		&tracedLayer{Layer: rbcast.New(stack.TagConsensus, mode, 0), t: t, proc: p, name: "rbcast"},
		&tracedLayer{Layer: consensus.New(stack.TagABcast, cfg.ResendEvery, cfg.DecisionHorizon), t: t, proc: p, name: "consensus"},
		&tracedLayer{Layer: ab, t: t, proc: p, name: "abcast"},
	)
	return &tracedEngine{Engine: &modularEngine{stk: stk, ab: ab, t: t, proc: p}, t: t, proc: p, name: "modular"}
}

// modularEngine is modular.Engine's routing, rebuilt here because the real
// one constructs its layers itself and so cannot be handed decorated ones.
// Its own time — the root span minus the layers' — is the stack framework:
// demultiplexing, dispatch and frame tagging.
type modularEngine struct {
	stk  *stack.Stack
	ab   *abcast.Layer
	t    *tracer
	proc int
}

func (m *modularEngine) Start() { m.stk.Start() }
func (m *modularEngine) HandleMessage(from types.ProcessID, data []byte) error {
	return m.stk.Receive(from, data)
}
func (m *modularEngine) HandleTimer(id engine.TimerID) { m.stk.HandleTimer(id) }
func (m *modularEngine) Abcast(body []byte) (types.MsgID, error) {
	// modular.Engine calls the abcast layer directly, not through the
	// stack; the span keeps the layer's time out of the stack's.
	m.t.begin("abcast.abcast", m.proc)
	id, err := m.ab.Abcast(body)
	m.t.end()
	return id, err
}
func (m *modularEngine) Suspect(p types.ProcessID, suspected bool) { m.stk.Suspect(p, suspected) }
func (m *modularEngine) Pending() int                              { return m.ab.Pending() }

// tracedEngine opens the root span of every engine entry point.
type tracedEngine struct {
	engine.Engine
	t    *tracer
	proc int
	name string
}

func (e *tracedEngine) Start() {
	e.t.begin(e.name+".start", e.proc)
	e.Engine.Start()
	e.t.end()
}

func (e *tracedEngine) Abcast(body []byte) (types.MsgID, error) {
	e.t.begin(e.name+".abcast", e.proc)
	id, err := e.Engine.Abcast(body)
	if err == nil {
		e.t.tag(id)
	}
	e.t.end()
	return id, err
}

func (e *tracedEngine) HandleMessage(from types.ProcessID, data []byte) error {
	e.t.begin(e.name+".handle_message", e.proc)
	err := e.Engine.HandleMessage(from, data)
	e.t.end()
	return err
}

func (e *tracedEngine) HandleTimer(id engine.TimerID) {
	e.t.begin(e.name+".handle_timer", e.proc)
	e.Engine.HandleTimer(id)
	e.t.end()
}

// linkTick is how far the manual clock advances per delivered frame.
const linkTick = time.Microsecond

// step delivers one frame (seeded choice among the links' heads, so
// per-link order stays FIFO) or, with the network empty, fires the next
// timer. It reports whether anything happened.
func (h *harness) step() bool {
	h.fireDue()
	if len(h.busy) > 0 {
		i := h.r.IntN(len(h.busy))
		l := h.busy[i]
		m := h.links[l][0]
		h.links[l][0] = netMsg{}
		h.links[l] = h.links[l][1:]
		if len(h.links[l]) == 0 {
			h.links[l] = nil
			h.busy[i] = h.busy[len(h.busy)-1]
			h.busy = h.busy[:len(h.busy)-1]
		}
		h.clock += linkTick
		to := h.envs[l%h.n]
		to.cnt.MsgsRecv.Add(1)
		to.cnt.BytesRecv.Add(int64(len(m.data)))
		_ = to.eng.HandleMessage(m.from, m.data) // engines drop malformed frames; none are made here
		return true
	}
	if next, ok := h.nextTimer(); ok {
		h.clock = next
		h.fireDue()
		return true
	}
	return false
}

func (h *harness) nextTimer() (time.Duration, bool) {
	h.pruneTimers()
	if len(h.timers) == 0 {
		return 0, false
	}
	at := h.timers[0].at
	for _, t := range h.timers[1:] {
		if t.at < at {
			at = t.at
		}
	}
	return at, true
}

func (h *harness) pruneTimers() {
	live := h.timers[:0]
	for _, t := range h.timers {
		if h.envs[t.proc].gens[t.id] == t.gen {
			live = append(live, t)
		}
	}
	h.timers = live
}

// fireDue fires every live timer whose deadline has passed, oldest first.
func (h *harness) fireDue() {
	for {
		h.pruneTimers()
		var due []hTimer
		for _, t := range h.timers {
			if t.at <= h.clock {
				due = append(due, t)
			}
		}
		if len(due) == 0 {
			return
		}
		sort.Slice(due, func(i, j int) bool {
			if due[i].at != due[j].at {
				return due[i].at < due[j].at
			}
			return due[i].seq < due[j].seq
		})
		t := due[0]
		e := h.envs[t.proc]
		e.gens[t.id]++ // edge-triggered: firing disarms
		e.eng.HandleTimer(t.id)
	}
}

// writeSpans writes the kept spans of one run to path.
func writeSpans(path string, hr *harnessResult, hc harnessConfig) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := map[string]any{
		"workload": hc.w.name, "stack": stackName(hc.stack), "n": hc.n, "seed": hc.seed,
		"messages": hr.msgs, "spans_total": hr.spanTotal, "spans_kept": len(hr.spans), "spans": hr.spans,
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
