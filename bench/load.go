package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"modab"
)

// windows is the number of equal windows every timed phase is cut into;
// each metric is computed per window and the median of the windows is
// reported (see overWindows). The windows of the two stacks and the two loops
// are interleaved, so that a few seconds of a slower machine land on some of
// every metric's windows instead of on all the windows of one.
const windows = 5

// inputs turns the seed into op bodies. Both stacks of a run get inputs
// built from the same seed, so they see identical bytes.
type inputs struct {
	w    workload
	pool [][]byte // fixed-size bodies, or KV values
	keys [][]byte
}

func newInputs(w workload, seed uint64) *inputs {
	r := rand.New(rand.NewPCG(seed, 0x6d6f646162))
	in := &inputs{w: w}
	size, count := w.bodyLen, 256
	if w.kv() {
		size, count = kvValueLen, 64
		in.keys = make([][]byte, kvKeys)
		for i := range in.keys {
			in.keys[i] = []byte(fmt.Sprintf("k%0*d", kvKeyLen-1, i))
		}
	}
	in.pool = make([][]byte, count)
	for i := range in.pool {
		b := make([]byte, size)
		for j := range b {
			b[j] = byte(r.Uint32())
		}
		in.pool[i] = b
	}
	return in
}

// body draws the next op from r.
func (in *inputs) body(r *rand.Rand) []byte {
	if !in.w.kv() {
		return in.pool[r.IntN(len(in.pool))]
	}
	key := in.keys[r.IntN(len(in.keys))]
	if r.Float64() < kvPutShare {
		return modab.KVPut(key, in.pool[r.IntN(len(in.pool))])
	}
	return modab.KVGet(key)
}

// slot is the rendezvous between the open-loop generator, which learns an
// op's MsgID only when TryAbcast returns, and the collector, which may see
// that op's adelivery first. Whoever arrives second finds the other's
// timestamp, records the latency and frees the slot. 0 = free, > 0 = due
// time left by the generator, < 0 = minus the delivery time left by the
// collector (both in ns since the session's t0, which is never 0 here).
type slot struct{ state atomic.Int64 }

// slotRing bounds the rendezvous table per origin. Only ops between
// admission and adelivery hold a slot, and flow control bounds those to the
// effective window (at most 256 here), so seq mod slotRing never collides.
const slotRing = 1 << 14

// phase is what the collector does with own deliveries at the moment; the
// main goroutine swaps it between idle, warm-up, closed and open windows.
type phase struct {
	// closed loop: own deliveries stamped in [start, end), ns since t0.
	start, end int64
	done       atomic.Int64
	// open loop (open != nil): latency recording and the failover gap.
	open *openPhase
}

// collector is the single goroutine draining Deliveries(): it feeds the
// checker, counts, and completes open-loop ops.
type collector struct {
	t0     time.Time
	chk    *checker
	events []atomic.Int64 // events[p]: adeliveries observed at process p
	own    []atomic.Int64 // own[o]: adeliveries at o of o's own messages
	slots  [][]slot
	phase  atomic.Pointer[phase]
	exited chan struct{}
}

func (c *collector) now() int64 { return int64(time.Since(c.t0)) + 1 }

func startCollector(s *sut, keepLog bool) *collector {
	c := &collector{
		t0:     time.Now(),
		chk:    newChecker(s.n, keepLog),
		events: make([]atomic.Int64, s.n),
		own:    make([]atomic.Int64, s.n),
		slots:  make([][]slot, s.n),
		exited: make(chan struct{}),
	}
	for i := range c.slots {
		c.slots[i] = make([]slot, slotRing)
	}
	c.phase.Store(&phase{})
	// One, or groupSize (TCP), subscriptions; unused cases stay nil and
	// never fire. The deterministic harness, not this collector, runs n=7.
	var ch [groupSize]<-chan modab.Event
	for i, sub := range s.subs {
		ch[i] = sub.C()
	}
	go func() {
		defer close(c.exited)
		open := len(s.subs)
		for open > 0 {
			var ev modab.Event
			var ok bool
			var i int
			select {
			case ev, ok = <-ch[0]:
				i = 0
			case ev, ok = <-ch[1]:
				i = 1
			case ev, ok = <-ch[2]:
				i = 2
			}
			if !ok {
				ch[i] = nil
				open--
				continue
			}
			c.handle(ev)
		}
	}()
	return c
}

func (c *collector) handle(ev modab.Event) {
	p, id := int(ev.P), ev.D.Msg.ID
	c.chk.observe(p, id, len(ev.D.Msg.Body))
	ph := c.phase.Load()
	if ph.open != nil && ph.open.gapWatch.Load() && p != crashVictim {
		ph.open.survivorDelivery(c.now())
	}
	if p == int(id.Sender) {
		at := c.now()
		if ph.open != nil {
			sl := &c.slots[p][id.Seq%slotRing]
			if !sl.state.CompareAndSwap(0, -at) {
				due := sl.state.Load()
				sl.state.Store(0)
				ph.open.complete(p, due, at)
			}
		} else if at >= ph.start && at < ph.end {
			ph.done.Add(1)
		}
		c.own[p].Add(1)
	}
	c.events[p].Add(1)
}

// clients is the closed-loop client count: the generator uses no more
// goroutines than the machine has processors.
func clients() int { return runtime.GOMAXPROCS(0) }

// closedResult is one closed-loop window.
type closedResult struct {
	perSec    float64 // own deliveries per second of the window
	submitted []int64 // accepted ops per origin
	failed    int64
}

// ops returns the number of accepted ops.
func (r closedResult) ops() (n int64) {
	for _, k := range r.submitted {
		n += k
	}
	return n
}

// runClosed saturates the group for dur (or, when ops > 0, for exactly ops
// operations — the warm-up): client c's k-th op goes to origin (c+k) mod n
// with the blocking Abcast, so the load sits behind the engines' shared flow
// control like the paper's. An op completes when it is adelivered at its
// origin; the collector counts those that happen within the window. The ops
// are booked to the session, which is drained before runClosed returns.
func (ss *session) runClosed(seed uint64, dur time.Duration, ops int) (closedResult, error) {
	s, col, in := ss.s, ss.col, ss.in
	nc := clients()
	ph := &phase{start: col.now()}
	ph.end = ph.start + int64(dur)
	end := ph.end
	col.phase.Store(ph)
	res := closedResult{submitted: make([]int64, s.n)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, uint64(c)+1))
			sub := make([]int64, s.n)
			var failed int64
			for k := 0; ; k++ {
				if ops > 0 {
					if k >= ops/nc {
						break
					}
				} else if col.now() >= end {
					break
				}
				o := (c + k) % s.n
				// Background, not a deadline: a cancelled Abcast may or may
				// not have been admitted, which the checker could not account.
				if _, err := s.abcast(context.Background(), o, in.body(r)); err != nil {
					failed++
					break
				}
				sub[o]++
			}
			mu.Lock()
			for o, k := range sub {
				res.submitted[o] += k
			}
			res.failed += failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if dur > 0 {
		// Clients overrun the window by at most one op each; the collector
		// stopped counting at its end.
		res.perSec = float64(ph.done.Load()) / dur.Seconds()
		ss.attempted += res.ops() + res.failed
	}
	for o, k := range res.submitted {
		ss.submitted[o] += k
	}
	ss.failed += res.failed
	return res, ss.drain()
}

// openPhase accumulates one open-loop phase. The collector and (rarely)
// the generator both complete ops, hence the mutex; it is uncontended.
type openPhase struct {
	mu        sync.Mutex
	lat       []int64 // due → adelivered at the origin, ns
	completed int64
	limit     int64          // the workload's latency limit, ns
	overLimit int64          // slower than limit
	lost      int64          // slower than lostAfter
	pending   []atomic.Int64 // per origin: queued or in flight

	// Failover gap (crash workload): longest interval without an
	// adelivery at a surviving process while gapWatch is on. The fault
	// injector opens the first interval when it turns the watch on and closes
	// the last when it turns it off; the collector does the rest.
	gapWatch     atomic.Bool
	lastSurvivor atomic.Int64
	maxGap       atomic.Int64
}

func (o *openPhase) complete(origin int, due, at int64) {
	lat := at - due
	o.mu.Lock()
	o.lat = append(o.lat, lat)
	o.completed++
	if lat > o.limit {
		o.overLimit++
	}
	if lat > int64(lostAfter) {
		o.lost++
	}
	o.mu.Unlock()
	o.pending[origin].Add(-1)
}

// survivorDelivery ends the interval without a survivor's adelivery that
// began at the previous one, at time at.
func (o *openPhase) survivorDelivery(at int64) {
	if gap := at - o.lastSurvivor.Swap(at); gap > o.maxGap.Load() {
		o.maxGap.Store(gap)
	}
}

// openResult is one open-loop window.
type openResult struct {
	lat       []int64 // due → adelivered at the origin, ns
	late      []int64 // how long after the requested instant each generator sleep ended, ns
	attempted int64
	failed    int64 // errored, undelivered at the drain deadline, or slower than lostAfter
	overLimit int64 // slower than the workload's latency limit
	flowWaits int64 // ops that met ErrFlowControl at least once
	submitted []int64
	submitNs  []int64 // sampled durations of accepted TryAbcast calls
	maxGapNs  int64
}

// queued is one open-loop op waiting in its origin's FIFO.
type queued struct {
	due    int64
	body   []byte
	waited bool
}

// retryEvery bounds how long a flow-controlled head waits for a retry when
// no own delivery at its origin is observed.
const retryEvery = 100 * time.Microsecond

// runOpen offers Poisson arrivals at rate ops/s for dur, round-robin over
// the origins live reports, from one generator goroutine. Each origin has a
// FIFO; its head is submitted with TryAbcast and retried on ErrFlowControl
// when the collector has seen an own delivery there, or after retryEvery.
// Latency runs from the instant the op was due to its adelivery at its
// origin, so time spent queued behind a full window or a stalled generator
// is counted. ready, when non-nil, receives the phase before the first
// arrival (the crash workload's fault injector starts from it). The ops are
// booked to the session.
func (ss *session) runOpen(seed uint64, dur time.Duration, live func(o int) bool, ready func(*openPhase)) openResult {
	s, col, in, w := ss.s, ss.col, ss.in, ss.w
	r := rand.New(rand.NewPCG(seed, 0x6f70656e))
	op := &openPhase{pending: make([]atomic.Int64, s.n), limit: int64(w.limit)}
	op.lat = make([]int64, 0, int(w.openRate*dur.Seconds()*1.2))
	start := col.now()
	col.phase.Store(&phase{open: op})
	if ready != nil {
		ready(op)
	}

	res := openResult{submitted: make([]int64, s.n)}
	end := start + int64(dur)
	gap := func() int64 { return int64(r.ExpFloat64() / w.openRate * 1e9) }
	fifo := make([][]queued, s.n)
	blockedUntil := make([]int64, s.n) // 0 = not blocked
	seenOwn := make([]int64, s.n)
	nextDue := start + gap()
	rr := 0
	var errs int64
	for {
		now := col.now()
		for nextDue <= now && nextDue < end {
			o := -1
			for t := 0; t < s.n; t++ {
				if c := (rr + t) % s.n; live(c) {
					o, rr = c, rr+t+1
					break
				}
			}
			if o < 0 {
				break // no live origin: arrivals wait, still timed from nextDue
			}
			fifo[o] = append(fifo[o], queued{due: nextDue, body: in.body(r)})
			op.pending[o].Add(1)
			res.attempted++
			nextDue += gap()
		}
		queuedOps := 0
		wake := int64(math.MaxInt64)
		for o := range fifo {
			for len(fifo[o]) > 0 {
				if blockedUntil[o] != 0 && now < blockedUntil[o] && col.own[o].Load() == seenOwn[o] {
					break
				}
				q := &fifo[o][0]
				t0 := col.now()
				seenOwn[o] = col.own[o].Load()
				id, err := s.tryAbcast(o, q.body)
				t1 := col.now()
				if errors.Is(err, modab.ErrFlowControl) {
					if !q.waited {
						q.waited = true
						res.flowWaits++
					}
					blockedUntil[o] = t1 + int64(retryEvery)
					break
				}
				blockedUntil[o] = 0
				if err != nil {
					errs++
					op.pending[o].Add(-1)
				} else {
					res.submitted[o]++
					if res.submitted[o]%16 == 0 {
						res.submitNs = append(res.submitNs, t1-t0)
					}
					sl := &col.slots[o][id.Seq%slotRing]
					if !sl.state.CompareAndSwap(0, q.due) {
						at := -sl.state.Load()
						sl.state.Store(0)
						op.complete(o, q.due, at)
					}
				}
				fifo[o][0] = queued{}
				fifo[o] = fifo[o][1:]
				now = t1
			}
			queuedOps += len(fifo[o])
			if blockedUntil[o] != 0 && blockedUntil[o] < wake {
				wake = blockedUntil[o]
			}
		}
		if nextDue < end && nextDue < wake {
			wake = nextDue
		}
		if wake == math.MaxInt64 {
			if queuedOps == 0 {
				break
			}
			wake = now + int64(retryEvery)
		}
		if before := col.now(); wake > before {
			pause(wake - before)
			res.late = append(res.late, col.now()-wake)
		}
	}

	// Drain: ops still in flight complete or fail at the deadline.
	var submitted int64
	for _, k := range res.submitted {
		submitted += k
	}
	deadline := time.Now().Add(drainLimit)
	for time.Now().Before(deadline) {
		op.mu.Lock()
		done := op.completed
		op.mu.Unlock()
		if done == submitted {
			break
		}
		time.Sleep(time.Millisecond)
	}
	col.phase.Store(&phase{})
	op.mu.Lock()
	res.lat = op.lat
	res.failed = errs + (submitted - op.completed) + op.lost
	res.overLimit = op.overLimit
	op.mu.Unlock()
	res.maxGapNs = op.maxGap.Load()
	for o, k := range res.submitted {
		ss.submitted[o] += k
	}
	ss.attempted += res.attempted
	ss.failed += res.failed
	ss.overLimit += res.overLimit
	return res
}

// allLive is runOpen's live when nothing crashes.
func allLive(int) bool { return true }

// pause sleeps for ns nanoseconds with nanosleep(2). time.Sleep cannot pace
// an open loop of tens of thousands of arrivals per second: an idle Go
// scheduler parks in epoll with millisecond resolution, so a 50 µs sleep
// takes 1 ms. The calling thread's timer slack is first dropped from the
// default 50 µs to the minimum (the goroutine may run on any thread, and the
// call costs a fraction of a microsecond). A signal may end the sleep early;
// callers loop on their clock.
func pause(ns int64) {
	if ns <= 0 {
		return
	}
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: without it pause is ~50 µs late
	ts := syscall.NsecToTimespec(ns)
	_ = syscall.Nanosleep(&ts, nil) // EINTR: the caller re-reads the clock
}

// drainLimit bounds every wait for outstanding deliveries.
const drainLimit = 10 * time.Second

// session is one cluster with its collector, from set-up to verification.
type session struct {
	w         workload
	stack     modab.Stack
	s         *sut
	col       *collector
	in        *inputs
	seed      uint64
	submitted []int64 // accepted ops per origin, warm-up included
	attempted int64   // ops of the timed windows (not the warm-up's)
	failed    int64
	overLimit int64 // open-loop ops slower than the workload's latency limit
	setup     time.Duration
}

// openSession builds the cluster, preloads the KV keys, warms up and
// collects garbage: everything before the first timed window. Its duration
// is one setup_s sample.
func openSession(w workload, stack modab.Stack, seed uint64, so sutOptions) (*session, error) {
	begin := time.Now()
	s, err := newSUT(w, stack, so)
	if err != nil {
		return nil, err
	}
	ss := &session{w: w, stack: stack, s: s, col: startCollector(s, w.crash), in: newInputs(w, seed), seed: seed, submitted: make([]int64, s.n)}
	if w.kv() {
		for i, key := range ss.in.keys {
			o := i % s.n
			if _, err := s.abcast(context.Background(), o, modab.KVPut(key, ss.in.pool[i%len(ss.in.pool)])); err != nil {
				ss.close()
				return nil, fmt.Errorf("preload: %w", err)
			}
			ss.submitted[o]++
		}
	}
	if _, err := ss.runClosed(seed^0x7761726d, 0, w.warmOps); err != nil {
		ss.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	ss.setup = time.Since(begin)
	return ss, nil
}

func (ss *session) total() int64 {
	var t int64
	for _, k := range ss.submitted {
		t += k
	}
	return t
}

// drain waits until every process has adelivered every submitted op. A
// restarted process may skip the deliveries a peer's snapshot covered, so
// on the crash workload the victim is instead waited for until its state
// machine has applied everything the survivors have.
func (ss *session) drain() error {
	want := ss.total()
	deadline := time.Now().Add(drainLimit)
	for p := 0; p < ss.s.n; p++ {
		caughtUp := func() bool { return ss.col.events[p].Load() >= want }
		if ss.w.crash && p == crashVictim {
			caughtUp = func() bool {
				a := ss.s.cluster(p).Applier(p)
				return a != nil && a.AppliedIndex() >= ss.appliedElsewhere(p)
			}
		}
		for !caughtUp() {
			if time.Now().After(deadline) {
				return fmt.Errorf("drain: process %d has %d of %d adeliveries after %v", p, ss.col.events[p].Load(), want, drainLimit)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// appliedElsewhere is the highest instance any process other than p has
// applied.
func (ss *session) appliedElsewhere(p int) (idx uint64) {
	for q := 0; q < ss.s.n; q++ {
		if a := ss.s.cluster(q).Applier(q); q != p && a != nil && a.AppliedIndex() > idx {
			idx = a.AppliedIndex()
		}
	}
	return idx
}

// finish drains, reads what verification needs from the facade, shuts the
// cluster down and runs the correctness check.
func (ss *session) finish() error {
	derr := ss.drain()
	e := expectation{submitted: ss.submitted, delivered: make([]int64, ss.s.n)}
	for p := range e.delivered {
		e.delivered[p] = ss.s.counters(p).ADeliver
	}
	if ss.w.crash {
		e.restarted = make([]bool, ss.s.n)
		e.restarted[crashVictim] = true
	}
	if ss.w.kv() {
		e.digests = make([][]byte, ss.s.n)
		for p := range e.digests {
			if a := ss.s.cluster(p).Applier(p); a != nil {
				e.digests[p] = a.StateDigest()
			}
		}
	}
	ss.close()
	if derr != nil {
		return derr
	}
	return ss.col.chk.verify(e)
}

// close shuts the cluster down and waits for the collector to exit, after
// which the checker's state is safe to read.
func (ss *session) close() {
	ss.s.close()
	<-ss.col.exited
}
