// Package netsim is a deterministic discrete-event simulator for the
// atomic broadcast stacks: virtual time, a per-process CPU server with a
// calibrated cost model, per-NIC egress bandwidth and propagation delay,
// seeded workload generation and fault injection.
//
// The same engine code (internal/modular, internal/monolithic) that runs
// over real TCP in internal/runtime runs here unchanged; the simulator
// merely drives HandleMessage/HandleTimer/Abcast in virtual time and
// charges CPU according to the measured work (message sizes and dispatch
// counts). Identical seeds and options yield identical traces.
package netsim

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/modular"
	"modab/internal/monolithic"
	"modab/internal/obs"
	"modab/internal/recovery"
	"modab/internal/rsm"
	"modab/internal/trace"
	"modab/internal/types"
)

// Options configures a simulated cluster.
type Options struct {
	// N is the group size (required).
	N int
	// Stack selects the implementation under test (required).
	Stack types.Stack
	// Engine carries the protocol tunables; the zero value means
	// engine.DefaultConfig(N).
	Engine engine.Config
	// Model is the hardware cost model; the zero value means
	// DefaultModel().
	Model CostModel
	// Seed drives workload jitter. Same seed, same trace.
	Seed int64
	// OnDeliver, when set, observes every adelivery synchronously in
	// virtual time, stamped with the instant its handler completed — the
	// simulator's one delivery observer.
	OnDeliver func(p types.ProcessID, d engine.Delivery, at time.Duration)
	// Durable gives every process a simulated durable store (an in-memory
	// write-ahead log that survives Crash), enabling Restart: crash-recovery
	// scenarios then run fully deterministically under virtual time.
	Durable bool
	// StateMachine, when non-nil, gives every process a replicated state
	// machine (the factory is called once per process and once more per
	// restart) fed synchronously from the delivery path through an
	// rsm.Applier. Snapshot state transfer between engines and
	// snapshot-anchored restarts switch on with it.
	StateMachine func() rsm.StateMachine
	// SnapshotEvery is the applier's snapshot cadence in instances
	// (rsm.Options.Interval); 0 disables automatic snapshots.
	SnapshotEvery uint64
	// Obs tunes the per-process observability recorders. Observability is
	// always on under the simulator — recording only reads the frozen
	// handler clock, so the traces stay bit-for-bit deterministic — and
	// the zero value selects the defaults (sample 1 in 32 messages).
	Obs obs.Config
	// NewEngine, when set, builds every incarnation's engine in place of
	// Stack's (the cost ledger wraps the Persister, or runs no protocol).
	NewEngine func(env engine.Env, cfg engine.Config) engine.Engine
}

// Cluster is a simulated group of processes running one stack.
type Cluster struct {
	opts  Options
	model CostModel
	now   time.Duration
	seq   uint64
	queue eventQueue
	procs []*proc
	rng   *rand.Rand
	// linkFaults holds the per-directed-link fault state (internal/netsim
	// faults.go); nil or empty entries leave the send path untouched.
	// linkOrder records link creation order for deterministic sweeps.
	linkFaults map[linkKey]*linkState
	linkOrder  []linkKey
	// errs collects engine errors (malformed messages etc.); tests assert
	// it stays empty.
	errs []error
	// slab holds the copies of sent frames (simEnv.Send).
	slab []byte
	// pendingJoins are processes whose OpAdd was submitted but whose view
	// has not yet been observed at any correct process; the first
	// OnConfig naming one spawns it (membership.go).
	pendingJoins map[types.ProcessID]bool
}

// proc is one simulated process.
type proc struct {
	id       types.ProcessID
	eng      engine.Engine
	counters trace.Counters
	env      *simEnv

	// obs is the process's observability recorder; it survives Crash and
	// Restart (like counters), accumulating across incarnations.
	obs *obs.Recorder

	// applier is the process's state machine applier (Options.StateMachine);
	// deliveries feed it synchronously inside exec.
	applier *rsm.Applier
	// store (Options.Durable) and snaps (Options.StateMachine) are the
	// simulated write-ahead log and snapshot files: they survive Crash,
	// which is what makes Restart possible.
	store recovery.Store
	snaps rsm.Store

	cpuFreeAt time.Duration
	nicFreeAt time.Duration
	crashed   bool
	timerGen  map[engine.TimerID]uint64

	// busy accumulates CPU time consumed (utilization reporting).
	busy time.Duration
}

// eventKind discriminates queue entries.
type eventKind uint8

const (
	evMsg eventKind = iota + 1
	evTimer
	evCall
)

// event is one queue entry.
type event struct {
	at   time.Duration
	seq  uint64
	kind eventKind
	proc types.ProcessID
	// evMsg fields.
	from types.ProcessID
	data []byte
	// evTimer fields.
	timerID  engine.TimerID
	timerGen uint64
	// evCall field.
	fn func()
}

// eventQueue is a min-heap on (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// NewCluster builds a simulated cluster. The engines are constructed and
// started immediately (at virtual time zero).
func NewCluster(opts Options) (*Cluster, error) {
	if opts.N < 1 {
		return nil, types.ErrEmptyGroup
	}
	if opts.Stack != types.Modular && opts.Stack != types.Monolithic {
		return nil, fmt.Errorf("%w: unknown stack %v", types.ErrBadConfig, opts.Stack)
	}
	if opts.Engine.N == 0 {
		opts.Engine = engine.DefaultConfig(opts.N)
	}
	if opts.Engine.N != opts.N {
		return nil, fmt.Errorf("%w: engine config N=%d, cluster N=%d", types.ErrBadConfig, opts.Engine.N, opts.N)
	}
	if err := opts.Engine.Validate(); err != nil {
		return nil, err
	}
	if opts.Model == (CostModel{}) {
		opts.Model = DefaultModel()
	}
	c := &Cluster{
		opts:         opts,
		model:        opts.Model,
		procs:        make([]*proc, opts.N),
		rng:          rand.New(rand.NewSource(opts.Seed)),
		pendingJoins: make(map[types.ProcessID]bool),
	}
	heap.Init(&c.queue)
	for i := range c.procs {
		c.procs[i] = c.newProc(types.ProcessID(i))
		if err := c.boot(c.procs[i], nil); err != nil {
			return nil, err
		}
	}
	for _, p := range c.procs {
		c.exec(p, 0, 0, p.eng.Start)
	}
	return c, nil
}

// newProc builds the slot of process id with its stores.
func (c *Cluster) newProc(id types.ProcessID) *proc {
	p := &proc{id: id, timerGen: make(map[engine.TimerID]uint64), obs: obs.NewRecorder(c.opts.Obs)}
	p.env = &simEnv{c: c, p: p}
	if c.opts.Durable {
		p.store = recovery.NewMemStore()
	}
	if c.opts.StateMachine != nil {
		p.snaps = rsm.NewMemStore()
	}
	return p
}

// boot starts one incarnation of process p through recovery.Boot — over
// its surviving stores, with a fresh state machine — and builds the
// engine of the cluster's stack. A non-nil initView is a spawned joiner's
// admitting view.
func (c *Cluster) boot(p *proc, initView *member.View) error {
	in := recovery.Incarnation{Self: p.id, N: c.opts.N, Engine: c.opts.Engine, Store: p.store, Snapshots: p.snaps,
		SnapshotEvery: c.opts.SnapshotEvery, Counters: &p.counters, Now: p.env.Now}
	in.Engine.Obs, in.Engine.InitialView = p.obs, initView
	if c.opts.StateMachine != nil {
		in.StateMachine = c.opts.StateMachine()
	}
	cfg, app, err := recovery.Boot(in)
	if err != nil {
		return err
	}
	id := p.id
	cfg.OnConfig = func(v member.View, _ member.Op) { c.onViewChange(id, v) }
	p.applier = app
	switch {
	case c.opts.NewEngine != nil:
		p.eng = c.opts.NewEngine(p.env, cfg)
	case c.opts.Stack == types.Monolithic:
		p.eng = monolithic.New(p.env, cfg)
	default:
		p.eng = modular.New(p.env, cfg)
	}
	return nil
}

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.now }

// N returns the group size.
func (c *Cluster) N() int { return c.opts.N }

// Errs returns engine errors collected so far (nil in healthy runs).
func (c *Cluster) Errs() []error { return c.errs }

// Counters returns a snapshot of one process's counters.
func (c *Cluster) Counters(p types.ProcessID) trace.Snapshot {
	return c.procs[p].counters.Snapshot()
}

// TotalCounters returns the group-wide counter totals.
func (c *Cluster) TotalCounters() trace.Snapshot {
	var total trace.Snapshot
	for _, p := range c.procs {
		total.Add(p.counters.Snapshot())
	}
	return total
}

// Stats returns the uniform whole-cluster snapshot (same shape as the
// real-time drivers').
func (c *Cluster) Stats() trace.Stats {
	st := trace.Stats{N: len(c.procs), PerProcess: make([]trace.Snapshot, len(c.procs))}
	for i, p := range c.procs {
		st.PerProcess[i] = p.counters.Snapshot()
		st.Total.Add(st.PerProcess[i])
	}
	return st
}

// Utilization returns the fraction of virtual time process p's CPU was
// busy, up to the current time.
func (c *Cluster) Utilization(p types.ProcessID) float64 {
	if c.now <= 0 {
		return 0
	}
	return float64(c.procs[p].busy) / float64(c.now)
}

// Pending returns the engine's count of unordered messages at p.
func (c *Cluster) Pending(p types.ProcessID) int { return c.procs[p].eng.Pending() }

// Applier returns process p's state machine applier, or nil when the
// cluster runs without Options.StateMachine. The harness reads applied
// indexes, awaits results, and compares state digests through it.
func (c *Cluster) Applier(p types.ProcessID) *rsm.Applier { return c.procs[p].applier }

// Obs returns process p's observability recorder (latency histograms and
// the sampled lifecycle trace). The recorder survives crashes and
// restarts, accumulating across incarnations.
func (c *Cluster) Obs(p types.ProcessID) *obs.Recorder { return c.procs[p].obs }

// Events returns the number of queued simulation events. A cluster that
// reaches zero has quiesced: no message, timer, or fault event is
// outstanding (the chaos harness's liveness check keys off it).
func (c *Cluster) Events() int { return c.queue.Len() }

// push schedules an event.
func (c *Cluster) push(e *event) {
	c.seq++
	e.seq = c.seq
	heap.Push(&c.queue, e)
}

// At schedules a harness callback at the given virtual time (or now,
// whichever is later). Callbacks run outside any process CPU.
func (c *Cluster) At(t time.Duration, fn func()) {
	if t < c.now {
		t = c.now
	}
	c.push(&event{at: t, kind: evCall, proc: types.Nobody, fn: fn})
}

// Abcast schedules an abcast submission at process p at the given time.
// report, if non-nil, observes the outcome: the assigned ID and t0 (the
// time the abcast call completed), or the admission error.
func (c *Cluster) Abcast(p types.ProcessID, at time.Duration, body []byte,
	report func(id types.MsgID, t0 time.Duration, err error)) {
	if at < c.now {
		at = c.now
	}
	c.push(&event{at: at, kind: evCall, proc: types.Nobody, fn: func() {
		if p < 0 || int(p) >= len(c.procs) {
			// A joiner that has not spawned yet behaves like a crashed
			// process for submissions.
			if report != nil {
				report(types.MsgID{}, c.now, types.ErrCrashed)
			}
			return
		}
		pr := c.procs[p]
		if pr.crashed {
			if report != nil {
				report(types.MsgID{}, c.now, types.ErrCrashed)
			}
			return
		}
		var id types.MsgID
		var err error
		end := c.exec(pr, c.now, c.model.AbcastPerMsg, func() {
			id, err = pr.eng.Abcast(body)
		})
		if report != nil {
			report(id, end, err)
		}
	}})
}

// Crash stops process p at the given time: its pending and future events
// are discarded and every other process's failure detector reports it
// after the configured detection delay.
func (c *Cluster) Crash(p types.ProcessID, at time.Duration) {
	c.At(at, func() {
		pr := c.procs[p]
		if pr.crashed {
			return
		}
		pr.crashed = true
		for _, q := range c.procs {
			if q.id == p || q.crashed {
				continue
			}
			qp := q
			c.At(c.now+c.model.FDDetect, func() {
				if qp.crashed {
					return
				}
				c.exec(qp, c.now, c.model.TimerPerFire, func() {
					qp.eng.Suspect(p, true)
				})
			})
		}
	})
}

// Restart brings a crashed process back at the given time — the
// crash-recovery model (Options.Durable required). The new incarnation
// replays the process's simulated durable store, announces itself, and
// performs state transfer from a live peer before resuming; the previous
// incarnation's queued timers are invalidated, and every live process's
// failure detector reports the recovered peer unsuspected after the
// detection delay (the restarted process likewise suspects peers that are
// still down).
func (c *Cluster) Restart(p types.ProcessID, at time.Duration) {
	c.At(at, func() {
		pr := c.procs[p]
		if !pr.crashed {
			return
		}
		if !c.opts.Durable {
			c.errs = append(c.errs, fmt.Errorf("sim t=%v %s: Restart requires Options.Durable", c.now, p))
			return
		}
		if err := c.boot(pr, nil); err != nil {
			c.errs = append(c.errs, fmt.Errorf("sim t=%v %s: restart: %w", c.now, p, err))
			return
		}
		// Invalidate every timer armed by the previous incarnation; queued
		// fires carry the old generation and are dropped on dispatch.
		for id := range pr.timerGen {
			pr.timerGen[id]++
		}
		pr.crashed = false
		c.exec(pr, c.now, 0, pr.eng.Start)
		c.detect(pr, true)
		// Link faults outlive the crash, but the suspicion state attached
		// to them does not: inbound links (k.to == p) fed the dead
		// engine's failure detector, and outbound links (k.from == p) may
		// have healed while p was down — the unsuspect branch of fdCheck
		// skips crashed senders, leaving the flag stale, which would
		// silently swallow the suspicion of a LATER partition on the same
		// link. Reset both directions; still-blocked links re-report after
		// the detection delay (outbound ones re-suspecting at the observer
		// right after the crash-path unsuspect scheduled above, which runs
		// first at the same virtual time).
		for _, k := range c.linkOrder {
			if k.to != p && k.from != p {
				continue
			}
			key := k
			st := c.linkFaults[key]
			st.suspected = false
			if st.blocked {
				c.At(c.now+c.model.FDDetect, func() { c.fdCheck(key) })
			}
		}
	})
}

// detect schedules the failure detection that follows p's start, one
// detection delay later: p suspects every process already down and, after
// a restart, every live process unsuspects p.
func (c *Cluster) detect(p *proc, restarted bool) {
	for _, q := range c.procs {
		if q == p || !q.crashed && !restarted {
			continue
		}
		at, about, suspect := p, q.id, true
		if !q.crashed {
			at, about, suspect = q, p.id, false
		}
		c.At(c.now+c.model.FDDetect, func() {
			if !at.crashed {
				c.exec(at, c.now, c.model.TimerPerFire, func() { at.eng.Suspect(about, suspect) })
			}
		})
	}
}

// SuspectWindow injects a wrong suspicion: process q suspects p during
// [at, at+dur) although p is alive.
func (c *Cluster) SuspectWindow(q, p types.ProcessID, at, dur time.Duration) {
	c.At(at, func() {
		qp := c.procs[q]
		if qp.crashed {
			return
		}
		c.exec(qp, c.now, c.model.TimerPerFire, func() { qp.eng.Suspect(p, true) })
	})
	c.At(at+dur, func() {
		qp := c.procs[q]
		if qp.crashed {
			return
		}
		c.exec(qp, c.now, c.model.TimerPerFire, func() { qp.eng.Suspect(p, false) })
	})
}

// Run processes events until the queue is exhausted or virtual time
// exceeds until. It returns the virtual time reached.
func (c *Cluster) Run(until time.Duration) time.Duration {
	for c.queue.Len() > 0 {
		e := c.queue[0]
		if e.at > until {
			c.now = until
			return c.now
		}
		heap.Pop(&c.queue)
		c.now = e.at
		c.dispatch(e)
	}
	if c.now < until {
		c.now = until
	}
	return c.now
}

// RunIdle processes events until the queue is empty (engines must
// quiesce; periodic timers re-arm only while work is outstanding).
// The safety valve bounds runaway executions.
func (c *Cluster) RunIdle(safetyValve time.Duration) time.Duration {
	return c.Run(c.now + safetyValve)
}

// dispatch executes one event.
func (c *Cluster) dispatch(e *event) {
	switch e.kind {
	case evCall:
		e.fn()
	case evMsg:
		p := c.procs[e.proc]
		if p.crashed {
			return
		}
		p.counters.MsgsRecv.Add(1)
		p.counters.BytesRecv.Add(int64(len(e.data)))
		c.exec(p, e.at, c.model.recvCost(len(e.data)), func() {
			if err := p.eng.HandleMessage(e.from, e.data); err != nil {
				c.errs = append(c.errs, fmt.Errorf("sim t=%v %s: %w", e.at, p.id, err))
			}
		})
	case evTimer:
		p := c.procs[e.proc]
		if p.crashed || p.timerGen[e.timerID] != e.timerGen {
			return
		}
		c.exec(p, e.at, c.model.TimerPerFire, func() {
			p.eng.HandleTimer(e.timerID)
		})
	}
}

// exec runs one engine call on p's CPU at virtual time at (or when the
// CPU frees up), charges baseCost plus the per-dispatch and per-send
// costs measured during the call, and flushes buffered sends through the
// NIC model. It returns the time the handler completed.
func (c *Cluster) exec(p *proc, at time.Duration, baseCost time.Duration, fn func()) time.Duration {
	start := at
	if p.cpuFreeAt > start {
		start = p.cpuFreeAt
	}
	env := p.env
	env.handlerNow = start
	env.outbox = env.outbox[:0]
	env.deliveries = env.deliveries[:0]
	d0 := p.counters.Dispatches.Load()
	fn()
	dd := p.counters.Dispatches.Load() - d0

	cost := baseCost + time.Duration(dd)*c.model.PerDispatch
	for _, om := range env.outbox {
		cost += c.model.sendCost(len(om.data))
	}
	end := start + cost
	p.cpuFreeAt = end
	p.busy += cost

	// NIC egress: messages serialize in emission order on the sender's
	// link, then arrive after the propagation delay (possibly degraded by
	// injected link faults).
	for _, om := range env.outbox {
		sendStart := end
		if p.nicFreeAt > sendStart {
			sendStart = p.nicFreeAt
		}
		ser := c.model.serialization(len(om.data))
		p.nicFreeAt = sendStart + ser
		c.transmit(p.id, om.to, om.data, sendStart+ser)
	}
	// The state machine applies synchronously in the delivery path, before
	// observers run — an OnDeliver callback already sees the applied state.
	if p.applier != nil {
		for _, d := range env.deliveries {
			p.applier.Apply(d)
		}
	}
	// Application upcalls complete when the handler does.
	if c.opts.OnDeliver != nil {
		for _, d := range env.deliveries {
			c.opts.OnDeliver(p.id, d, end)
		}
	}
	return end
}

// outMsg is one buffered send.
type outMsg struct {
	to   types.ProcessID
	data []byte
}

// simEnv implements engine.Env for one simulated process.
type simEnv struct {
	c          *Cluster
	p          *proc
	handlerNow time.Duration
	outbox     []outMsg
	deliveries []engine.Delivery
}

var _ engine.Env = (*simEnv)(nil)

func (e *simEnv) Self() types.ProcessID     { return e.p.id }
func (e *simEnv) N() int                    { return e.c.opts.N }
func (e *simEnv) Now() time.Duration        { return e.handlerNow }
func (e *simEnv) Counters() *trace.Counters { return &e.p.counters }
func (e *simEnv) Deliver(d engine.Delivery) { e.deliveries = append(e.deliveries, d) }

func (e *simEnv) Send(to types.ProcessID, data []byte) {
	// The upper bound is the spawned-process count, not the boot size:
	// joiners admitted by config changes extend the ID space.
	if to == e.p.id || to < 0 || int(to) >= len(e.c.procs) {
		return
	}
	e.p.counters.MsgsSent.Add(1)
	e.p.counters.BytesSent.Add(int64(len(data)))
	// Send must not retain data (engine.Env): copy it into a 16 KiB slab,
	// once per fan-out. Consecutive sends of the same bytes (a broadcast)
	// share the copy, which receivers only read; the bytes are compared,
	// not the pointer, since a pooled writer may be refilled in between.
	if n := len(e.outbox); n > 0 && bytes.Equal(e.outbox[n-1].data, data) {
		e.outbox = append(e.outbox, outMsg{to: to, data: e.outbox[n-1].data})
		return
	}
	if len(e.c.slab)+len(data) > cap(e.c.slab) {
		e.c.slab = make([]byte, 0, max(16<<10, len(data)))
	}
	e.c.slab = append(e.c.slab, data...)
	e.outbox = append(e.outbox, outMsg{to: to, data: slices.Clip(e.c.slab[len(e.c.slab)-len(data):])})
}

func (e *simEnv) SetTimer(id engine.TimerID, d time.Duration) {
	e.p.timerGen[id]++
	e.c.push(&event{
		at:       e.handlerNow + d,
		kind:     evTimer,
		proc:     e.p.id,
		timerID:  id,
		timerGen: e.p.timerGen[id],
	})
}

func (e *simEnv) CancelTimer(id engine.TimerID) {
	e.p.timerGen[id]++
}
