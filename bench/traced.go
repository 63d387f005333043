package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"modab"
)

// The traced run attributes cost to layers from three sources, all in this
// directory's files (tracing inside the program is a later change):
//
//  1. boundary counts and the process envelope: the closed loop run again
//     with WithObservability(obsSample), read through Stats, Obs, MemStats
//     and getrusage; next to an untraced closed loop, whose throughput
//     difference is trace.overhead_frac;
//  2. the deterministic layer harness (harness.go);
//  3. leaf micro-timings (micro.go).

// obsSample is the lifecycle tracer's sampling period in the traced loop.
const obsSample = 8

// Shares of a stack's measured time in a traced run.
type tracedShares struct{ open, closed, traced, n1 float64 }

func sharesFor(w workload) tracedShares {
	if w.crash {
		return tracedShares{open: 0.5, closed: 0.15, traced: 0.15, n1: 0.1}
	}
	return tracedShares{open: 0.25, closed: 0.25, traced: 0.25, n1: 0.125}
}

// Harness sizes: messages ordered per run. The batched configurations order
// more, so that they see as many sender batches as the others see messages.
const (
	harnessMsgs        = 20000
	harnessMsgsBatched = 60000
	harnessMsgsN7      = 10000
)

// envelope is a snapshot of the process-wide meters.
type envelope struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcCPU   float64 // seconds
	heap    uint64
}

func readEnvelope() envelope {
	var e envelope
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		e.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	e.mallocs, e.bytes, e.heap = m.Mallocs, m.TotalAlloc, m.HeapInuse
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		e.gcCPU = s[0].Value.Float64()
	}
	return e
}

// tracedStack is one stack's part of a traced run.
type tracedStack struct {
	stack         modab.Stack
	pre           string
	plain, traced *session
	sat, satObs   []float64
	lat, late     [][]int64  // per open-loop window
	open          openResult // summed over the open-loop windows
	crash         crashResult
	// Sums over the traced closed-loop windows.
	env  envelope
	peak uint64
	msgs int64
	cnt  modab.Snapshot
}

// runTraced measures w's per-layer metrics.
func runTraced(w workload, cfg runConfig, outDir string) (*result, error) {
	perStack := cfg.seconds / float64(len(stacks))
	sh := sharesFor(w)
	win := func(share float64) time.Duration {
		return time.Duration(share * perStack / windows * float64(time.Second))
	}
	res := newResult(w, cfg, win(sh.traced), true)
	ms := newMetricSet()

	var all sessionSet
	defer all.close()
	var runs []*tracedStack
	for _, stack := range stacks {
		st := &tracedStack{stack: stack, pre: stackName(stack) + "."}
		runs = append(runs, st)
		var err error
		if st.plain, err = all.open(w, stack, cfg.seed, sutOptions{n: groupSize, walDir: cfg.walDir}); err != nil {
			return nil, err
		}
		if st.traced, err = all.open(w, stack, cfg.seed, sutOptions{n: groupSize, walDir: cfg.walDir, obs: obsSample}); err != nil {
			return nil, err
		}
	}

	// Source 1: the real drivers.
	if w.crash {
		for _, st := range runs {
			or, cr, err := runCrash(st.plain, time.Duration(sh.open*perStack*float64(time.Second)))
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", w.name, stackName(st.stack), err)
			}
			st.crash = cr
			st.addOpen(or)
		}
	}
	for round := 0; round < windows; round++ {
		for _, st := range runs {
			seed := cfg.seed + uint64(round+1)<<32
			if !w.crash {
				st.addOpen(st.plain.runOpen(seed, win(sh.open), allLive, nil))
			}
			cl, err := st.plain.runClosed(seed, win(sh.closed), 0)
			if err != nil {
				return nil, fmt.Errorf("%s %s closed loop: %w", w.name, stackName(st.stack), err)
			}
			st.sat = append(st.sat, cl.perSec)

			before, c0 := readEnvelope(), st.traced.s.total()
			cl, err = st.traced.runClosed(seed, win(sh.traced), 0)
			if err != nil {
				return nil, fmt.Errorf("%s %s traced closed loop: %w", w.name, stackName(st.stack), err)
			}
			after, c1 := readEnvelope(), st.traced.s.total()
			st.satObs = append(st.satObs, cl.perSec)
			st.addEnvelope(before, after)
			st.cnt.Add(counterDelta(c0, c1))
			st.msgs += cl.ops()
		}
	}
	for _, st := range runs {
		st.reportDrivers(ms, w)
		st.reportStages(ms, w)
		if !w.crash {
			reportLatency(ms, res, st.pre+"client.latency_p99_us", 0.99, st.lat, st.late)
		}
	}
	if err := all.finish(res); err != nil {
		res.Metrics, res.Absent = ms.vals, ms.absent
		return res, err
	}
	if err := reportN1(ms, w, cfg, win(sh.n1)*windows, res); err != nil {
		return nil, err
	}
	reportRatios(ms, runs)

	// Source 2: the deterministic layer harness, at the workload's
	// configuration and, for the paper's, at n = 7 as well (the paper's
	// overhead growth with group size).
	batch := 1.0
	for _, stack := range stacks {
		msgs := harnessMsgs
		if w.batching {
			msgs = harnessMsgsBatched
		}
		hc := harnessConfig{w: w, stack: stack, n: groupSize, msgs: cfg.scaled(msgs), seed: cfg.seed, walDir: cfg.walDir}
		hr, err := runHarness(hc)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", w.name, stackName(stack), err)
		}
		if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("trace-%s-%s.json", w.name, stackName(stack))), hr, hc); err != nil {
			return nil, err
		}
		reportHarness(ms, stack, hr, "")
		batch = hr.batchMsgs

		if paperConfig(w) {
			hc.n, hc.msgs = 7, cfg.scaled(harnessMsgsN7)
			h7, err := runHarness(hc)
			if err != nil {
				return nil, fmt.Errorf("%s n=7 %s: %w", w.name, stackName(stack), err)
			}
			reportHarness(ms, stack, h7, "n7.")
		}
	}

	// Source 3: leaf micro-timings on the shapes the harness saw, of the
	// layers this workload uses.
	budget := time.Duration(cfg.scaled(int(microBudget)))
	shp := workloadShape(w, cfg.seed, max(1, int(batch+0.5)))
	if err := microWire(ms, budget, w, shp); err != nil {
		return nil, fmt.Errorf("wire timings: %w", err)
	}
	microStream(ms, budget)
	if w.tcp {
		bw, err := microTCP(ms, budget)
		if err != nil {
			return nil, fmt.Errorf("tcp timings: %w", err)
		}
		for _, st := range runs {
			if sat, ok := overWindows(st.sat); ok {
				payload := sat * float64(shp.payload) / float64(len(shp.batch)) / 1e6
				ms.put(st.pre+"transport.tcp.link_efficiency", "frac", payload/bw, len(st.sat))
			}
		}
	} else if err := microMem(ms, budget); err != nil {
		return nil, fmt.Errorf("mem hop: %w", err)
	}
	if w.durable {
		if err := microWAL(ms, budget, shp, cfg.walDir, outDir); err != nil {
			return nil, fmt.Errorf("wal timings: %w", err)
		}
	}
	if w.kv() {
		if err := microRSM(ms, budget, cfg.seed); err != nil {
			return nil, fmt.Errorf("rsm timings: %w", err)
		}
	}
	reportGenerator(ms, w, cfg.seed)
	res.Correct = true
	res.Metrics, res.Absent = ms.vals, ms.absent
	return res, nil
}

func (st *tracedStack) addOpen(or openResult) {
	st.lat, st.late = append(st.lat, or.lat), append(st.late, or.late)
	st.open.attempted += or.attempted
	st.open.overLimit += or.overLimit
	st.open.flowWaits += or.flowWaits
	st.open.submitNs = append(st.open.submitNs, or.submitNs...)
	st.open.late = append(st.open.late, or.late...)
}

func (st *tracedStack) addEnvelope(a, b envelope) {
	st.env.cpu += b.cpu - a.cpu
	st.env.mallocs += b.mallocs - a.mallocs
	st.env.bytes += b.bytes - a.bytes
	st.env.gcCPU += b.gcCPU - a.gcCPU
	st.peak = max(st.peak, a.heap, b.heap)
}

// counterDelta returns b - a for the counters the traced run reads.
func counterDelta(a, b modab.Snapshot) modab.Snapshot {
	return modab.Snapshot{
		ADeliver:          b.ADeliver - a.ADeliver,
		Rounds:            b.Rounds - a.Rounds,
		SenderBatches:     b.SenderBatches - a.SenderBatches,
		SenderBatchedMsgs: b.SenderBatchedMsgs - a.SenderBatchedMsgs,
		OrderedBytes:      b.OrderedBytes - a.OrderedBytes,
		DisseminatedBytes: b.DisseminatedBytes - a.DisseminatedBytes,
		PayloadFetches:    b.PayloadFetches - a.PayloadFetches,
		Retransmissions:   b.Retransmissions - a.Retransmissions,
		StreamDropped:     b.StreamDropped - a.StreamDropped,
	}
}

// reportDrivers reports what the real-driver windows measured for one
// stack: the envelope, the boundary counts, the generator's view.
func (st *tracedStack) reportDrivers(ms *metricSet, w workload) {
	pre, k := st.pre, int(st.msgs)
	msgs := float64(st.msgs)
	ms.put(pre+"process.cpu_us_per_msg", "us", float64(st.env.cpu)/1e3/msgs, k)
	ms.put(pre+"process.allocs_per_msg", "count", float64(st.env.mallocs)/msgs, k)
	ms.put(pre+"process.alloc_bytes_per_msg", "B", float64(st.env.bytes)/msgs, k)
	// The runtime's GC CPU estimate advances once per cycle; over the
	// process's measured CPU time a cycle's lag is negligible.
	ms.put(pre+"process.gc_cpu_frac", "frac", st.env.gcCPU/st.env.cpu.Seconds(), k)
	ms.put(pre+"process.peak_heap_mb", "MB", float64(st.peak)/(1<<20), k)

	c := st.cnt
	if w.batching {
		ms.put(pre+"batch.msgs_per_batch", "count", c.MsgsPerSenderBatch(), int(c.SenderBatches))
	}
	ms.put(pre+"abcast.ordered_bytes_per_msg", "B", float64(c.OrderedBytes)/msgs, k)
	if w.digest {
		ms.put(pre+"dissem.bytes_per_msg", "B", float64(c.DisseminatedBytes)/msgs, k)
		ms.put(pre+"payload.fetches_per_kmsg", "count", float64(c.PayloadFetches)*1000/msgs, k)
	}
	ms.put(pre+"retransmissions_per_kmsg", "count", float64(c.Retransmissions)*1000/msgs, k)
	ms.put(pre+"stream.dropped", "count", float64(c.StreamDropped), k)
	if st.stack == modab.Modular {
		ms.put("consensus.round_changes", "count", float64(c.Rounds), k)
	}

	if sat, ok := overWindows(st.sat); ok {
		if obs, ok := overWindows(st.satObs); ok {
			ms.put(pre+"trace.overhead_frac", "frac", 1-obs/sat, len(st.satObs))
		}
	}
	attempted := int(st.open.attempted)
	ms.put(pre+"flow.wait_frac", "frac", float64(st.open.flowWaits)/float64(max(1, attempted)), attempted)
	ms.put(pre+"client.over_limit_per_kop", "count", float64(st.open.overLimit)*1000/float64(max(1, attempted)), attempted)
	if v, ok := quantile(st.open.submitNs, 0.5); ok {
		ms.put(pre+"runtime.submit_ns", "ns", float64(v), len(st.open.submitNs))
	}
	if v, ok := quantile(st.open.late, 0.99); ok {
		ms.put(pre+"gen.late_p99_us", "us", float64(v)/1e3, len(st.open.late))
	}

	// fd.false_suspicions: round changes nobody's crash called for.
	if !w.crash {
		ms.put(pre+"fd.false_suspicions", "count", float64(st.plain.s.total().Rounds), 1)
		return
	}
	v := st.crash.victim
	ms.put(pre+"fd.false_suspicions", "count", float64(st.crash.steadyRounds), 1)
	ms.put(pre+"fd.detect_ms", "ms", float64(st.crash.detectNs)/1e6, measured(st.crash.detectNs > 0))
	ms.put(pre+"recovery.replayed_msgs", "count", float64(v.RecoveryReplayedMsgs), 1)
	ms.put(pre+"recovery.fetched_msgs", "count", float64(v.RecoveryFetchedMsgs), 1)
	ms.put(pre+"recovery.snapshot_installs", "count", float64(v.SnapshotInstalls), 1)
	ms.put(pre+"recovery.engine_ms", "ms", float64(v.RecoveryNanos)/1e6, int(v.Recoveries))
}

// reportStages reports the medians of the stage-to-stage times of the
// sampled messages, each taken at the message's origin.
func (st *tracedStack) reportStages(ms *metricSet, w workload) {
	steps := []struct{ from, to, name string }{
		{"accept", "decide", "stage.accept_to_decide_us"},
		{"accept", "propose", "stage.accept_to_propose_us"},
		{"propose", "decide", "stage.propose_to_decide_us"},
		{"decide", "adeliver", "stage.decide_to_adeliver_us"},
		{"adeliver", "apply", "stage.adeliver_to_apply_us"},
	}
	applicable := map[string]bool{}
	for _, d := range perLayer {
		applicable[d.name] = d.applies(w)
	}
	diffs := make([][]int64, len(steps))
	for p := 0; p < st.traced.s.n; p++ {
		rec := st.traced.s.cluster(p).Obs(p)
		if rec == nil {
			continue
		}
		at := map[modab.MsgID]map[string]time.Duration{}
		for _, ev := range rec.TraceEvents() {
			if int(ev.ID.Sender) != p {
				continue
			}
			if at[ev.ID] == nil {
				at[ev.ID] = map[string]time.Duration{}
			}
			if _, seen := at[ev.ID][ev.Stage]; !seen {
				at[ev.ID][ev.Stage] = ev.At
			}
		}
		for _, stages := range at {
			for i, s := range steps {
				a, okA := stages[s.from]
				b, okB := stages[s.to]
				if okA && okB && b >= a {
					diffs[i] = append(diffs[i], int64(b-a))
				}
			}
		}
	}
	for i, s := range steps {
		if !applicable[s.name] {
			continue
		}
		if v, ok := quantile(diffs[i], 0.5); ok {
			ms.put(st.pre+s.name, "us", float64(v)/1e3, len(diffs[i]))
		} else {
			ms.miss(st.pre+s.name, "no sampled message has both stages")
		}
	}
}

// reportN1 measures the ceiling of event loop, stream and facade: a group
// of one, with no quorum to wait for and no network.
func reportN1(ms *metricSet, w workload, cfg runConfig, dur time.Duration, res *result) error {
	bare := w
	bare.tcp, bare.durable, bare.snapEvery, bare.crash = false, false, 0, false
	bare.warmOps /= 4
	for _, stack := range stacks {
		ss, err := openSession(bare, stack, cfg.seed, sutOptions{n: 1})
		if err != nil {
			return fmt.Errorf("n=1 %s: %w", stackName(stack), err)
		}
		cl, err := ss.runClosed(cfg.seed, dur, 0)
		if err == nil {
			err = sessionSet{ss}.finish(res)
		}
		if err != nil {
			ss.close()
			return fmt.Errorf("n=1 %s: %w", stackName(stack), err)
		}
		ms.put(stackName(stack)+".runtime.n1_msgs_s", "msgs/s", cl.perSec, int(cl.ops()))
	}
	return nil
}

func reportRatios(ms *metricSet, runs []*tracedStack) {
	var sat [2]float64
	for i, st := range runs {
		sat[i], _ = overWindows(st.sat)
	}
	if sat[0] > 0 && sat[1] > 0 {
		ms.put("stack.modular_over_monolithic_throughput", "ratio", sat[0]/sat[1], len(runs[0].sat))
	}
}

// reportHarness reports one deterministic run. prefix is "" for the
// workload's own configuration and "n7." for the paper configuration at
// n = 7, of which only the engine totals are reported.
func reportHarness(ms *metricSet, stack modab.Stack, hr *harnessResult, prefix string) {
	pre, k := stackName(stack)+"."+prefix, int(hr.msgs)
	msgs := float64(hr.msgs)
	c := hr.counters
	ms.put(pre+"engine_ns_per_msg", "ns", float64(hr.rootNs)/msgs, k)
	ms.put(pre+"net.msgs_per_msg", "count", float64(c.MsgsSent)/msgs, k)
	if prefix != "" {
		return
	}
	ms.put(pre+"engine_allocs_per_msg", "count", float64(hr.mallocs)/msgs, k)
	ms.put(pre+"net.bytes_per_msg", "B", float64(c.BytesSent)/msgs, k)
	ms.put(pre+"net.header_bytes_per_msg", "B", float64(c.BytesSent-c.PayloadBytesSent)/msgs, k)
	if hr.walCalls > 0 {
		n := float64(groupSize)
		ms.put(pre+"wal.syncs_per_kmsg", "count", float64(hr.walCalls)/n*1000/msgs, k)
		ms.put(pre+"wal.bytes_per_msg", "B", float64(hr.walBytes)/n/msgs, k)
	}

	self := func(layer string) float64 {
		var ns int64
		for _, call := range []string{".event", ".receive", ".timer", ".abcast"} {
			ns += hr.selfNs[layer+call]
		}
		return float64(ns) / msgs
	}
	root := func(name string) float64 {
		var ns int64
		for _, call := range []string{".abcast", ".handle_message", ".handle_timer"} {
			ns += hr.selfNs[name+call]
		}
		return float64(ns) / msgs
	}
	if stack == modab.Modular {
		ms.put("abcast.self_ns_per_msg", "ns", self("abcast"), k)
		ms.put("consensus.self_ns_per_msg", "ns", self("consensus"), k)
		ms.put("rbcast.self_ns_per_msg", "ns", self("rbcast"), k)
		ms.put("stack.self_ns_per_msg", "ns", root("modular"), k)
		ms.put("stack.dispatches_per_msg", "count", float64(c.Dispatches)/msgs, k)
		ms.put("abcast.msgs_per_decision", "count", msgs/float64(max(1, hr.decided)), k)
		ms.put("consensus.instances_per_kmsg", "count", float64(hr.decided)*1000/msgs, k)
	} else {
		ms.put("monolithic.self_ns_per_msg", "ns", root("monolithic"), k)
		ms.put("monolithic.dispatches_per_msg", "count", float64(c.Dispatches)/msgs, k)
	}
}

// reportGenerator measures what the generator itself allocates per op,
// against a sink that does nothing, so that it can be subtracted from the
// process envelope.
func reportGenerator(ms *metricSet, w workload, seed uint64) {
	in := newInputs(w, seed)
	r := rand.New(rand.NewPCG(seed, 0x67656e))
	const ops = 100000
	fifo := make([]queued, 0, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		fifo = append(fifo, queued{due: int64(i), body: in.body(r)})
		if len(fifo) == cap(fifo) {
			fifo = fifo[:0]
		}
	}
	runtime.ReadMemStats(&after)
	ms.put("gen.self_allocs_per_op", "count", float64(after.Mallocs-before.Mallocs)/ops, ops)
}
