package main

import (
	"fmt"
	"time"

	"modab"
)

// minValidWindows is how many of a metric's windows must have produced a
// sample for the metric to be reported at all, and how many must be valid
// (see lateLimit) for the invalid ones to be left out.
const minValidWindows = 3

// overWindows is the value a metric reports from its windows: their median,
// so that a disturbed window, or one in which the program itself stalled,
// weighs as much as any other. ok is false when too few windows have a value.
func overWindows(per []float64) (v float64, ok bool) {
	if len(per) < minValidWindows {
		return 0, false
	}
	return median(per)
}

// lateLimit invalidates an open-loop window: when the generator's own
// sleeps ended more than this late at their 99th percentile, the window
// measured a disturbed machine, not the system.
const lateLimit = time.Millisecond

// runConfig is what one benchmark run is given.
type runConfig struct {
	seed    uint64
	seconds float64 // measured time of the whole run, both stacks
	walDir  string
	// scale shrinks the traced run's fixed-size parts (harness messages,
	// micro-timing loops) for the tests; 0 means full size.
	scale float64
}

func (c runConfig) scaled(n int) int {
	if c.scale <= 0 {
		return n
	}
	return max(1, int(float64(n)*c.scale))
}

// result is one run of one workload: both stacks with identical inputs.
type result struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	WindowS   float64 `json:"window_s"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// OverLimit counts the open-loop ops slower than the workload's latency
	// limit (LimitMs): not failed, but the stack had fallen behind.
	OverLimit int64            `json:"over_limit"`
	LimitMs   float64          `json:"limit_ms"`
	Metrics   map[string]value `json:"metrics"`
	// Windows holds the per-window values behind each windowed metric.
	Windows map[string][]float64 `json:"windows,omitempty"`
	Absent  map[string]string    `json:"absent,omitempty"`
	Notes   []string             `json:"notes,omitempty"`
}

func newResult(w workload, cfg runConfig, window time.Duration, traced bool) *result {
	return &result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, WindowS: window.Seconds(), Traced: traced,
		LimitMs: float64(w.limit) / 1e6, Windows: map[string][]float64{},
	}
}

// Shares of a stack's measured time on the crash workload: the open-loop
// scenario holds a whole outage and recovery, so it gets the larger part.
const (
	crashOpenShare   = 0.55
	crashClosedShare = 0.45
)

// stackRun is one stack's part of a run: its clusters and per-window values.
type stackRun struct {
	stack modab.Stack
	pre   string // metric name prefix
	// open and closed are the clusters of the two loops. The crash workload
	// uses one for both: after the scenario the recovered group carries the
	// saturating load. The issue has that workload open loop only; the closed
	// loop is there because a benchmark driver takes one metric set from
	// every workload, and without it no throughput could be in that set.
	open, closed *session
	sat          []float64
	lat          [][]int64 // per open-loop window
	late         [][]int64
}

// sessionSet is every cluster of a run. close is safe on sessions that
// finish already closed, so runs defer it.
type sessionSet []*session

func (set *sessionSet) open(w workload, stack modab.Stack, seed uint64, so sutOptions) (*session, error) {
	ss, err := openSession(w, stack, seed, so)
	if err != nil {
		return nil, fmt.Errorf("%s %s set-up: %w", w.name, stackName(stack), err)
	}
	*set = append(*set, ss)
	return ss, nil
}

func (set sessionSet) close() {
	for _, ss := range set {
		ss.close()
	}
}

// finish books every session's ops to res and runs the correctness checks;
// a failed check fails every op of the run.
func (set sessionSet) finish(res *result) error {
	var first error
	for _, ss := range set {
		res.Attempted += ss.attempted
		res.Failed += ss.failed
		res.OverLimit += ss.overLimit
		if err := ss.finish(); err != nil && first == nil {
			first = fmt.Errorf("%s %s: %w", ss.w.name, stackName(ss.stack), err)
		}
	}
	if first != nil {
		res.Failed = res.Attempted
	}
	return first
}

// runWorkload measures the end-to-end metrics of w. Every cluster is set up
// first; then the windows of both stacks and both loops are interleaved.
func runWorkload(w workload, cfg runConfig) (*result, error) {
	perStack := time.Duration(cfg.seconds / float64(len(stacks)) * float64(time.Second))
	window := perStack / (2 * windows)
	if w.crash {
		window = time.Duration(crashClosedShare*float64(perStack)) / windows
	}
	res := newResult(w, cfg, window, false)
	ms := newMetricSet()
	so := sutOptions{n: groupSize, walDir: cfg.walDir}

	var all sessionSet
	defer all.close()
	var runs []*stackRun
	for _, stack := range stacks {
		st := &stackRun{stack: stack, pre: stackName(stack) + "."}
		runs = append(runs, st)
		var err error
		if st.open, err = all.open(w, stack, cfg.seed, so); err != nil {
			return nil, err
		}
		st.closed = st.open
		if !w.crash {
			if st.closed, err = all.open(w, stack, cfg.seed, so); err != nil {
				return nil, err
			}
		}
	}

	if w.crash {
		for _, st := range runs {
			or, cr, err := runCrash(st.open, time.Duration(crashOpenShare*float64(perStack)))
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", w.name, stackName(st.stack), err)
			}
			ms.put(st.pre+"failover_gap_ms", "ms", float64(or.maxGapNs)/1e6, measured(or.maxGapNs > 0))
			ms.put(st.pre+"recovery_ms", "ms", float64(cr.recoveryNs)/1e6, measured(cr.recoveryNs > 0))
			reportCrashLatency(ms, st.pre+"latency_p50_us", or)
		}
	}
	for round := 0; round < windows; round++ {
		for _, st := range runs {
			seed := cfg.seed + uint64(round+1)<<32
			if !w.crash {
				or := st.open.runOpen(seed, window, allLive, nil)
				st.lat, st.late = append(st.lat, or.lat), append(st.late, or.late)
			}
			cl, err := st.closed.runClosed(seed, window, 0)
			if err != nil {
				return nil, fmt.Errorf("%s %s closed loop: %w", w.name, stackName(st.stack), err)
			}
			st.sat = append(st.sat, cl.perSec)
		}
	}

	for _, st := range runs {
		reportThroughput(ms, res, st.pre, st.sat)
		if !w.crash {
			reportLatency(ms, res, st.pre+"latency_p50_us", 0.5, st.lat, st.late)
		}
	}
	var setups []float64
	for _, ss := range all {
		setups = append(setups, ss.setup.Seconds())
	}
	setup, _ := median(setups)
	ms.put("setup_s", "s", setup, len(setups))
	res.Metrics, res.Absent = ms.vals, ms.absent
	if err := all.finish(res); err != nil {
		return res, err
	}
	res.Correct = true
	return res, nil
}

// measured is the sample count of a single measurement: 1 when it was
// taken, else 0, which records the metric as absent.
func measured(ok bool) int {
	if ok {
		return 1
	}
	return 0
}

func reportThroughput(ms *metricSet, res *result, pre string, sat []float64) {
	name := pre + "sat_throughput_msgs_s"
	var per []float64
	for _, x := range sat {
		if x > 0 {
			per = append(per, x)
		}
	}
	res.Windows[name] = per
	v, ok := overWindows(per)
	if !ok {
		ms.miss(name, fmt.Sprintf("%d of %d windows saw a delivery", len(per), windows))
		return
	}
	ms.put(name, "msgs/s", v, len(per))
}

// reportCrashLatency reports the crash scenario's median latency. The
// scenario passes through different regimes (steady, outage, degraded,
// recovering), so the percentile is taken over all of it; p99, bimodal by
// construction, is not reported there.
func reportCrashLatency(ms *metricSet, name string, or openResult) {
	if p50, ok := quantile(or.lat, 0.5); ok {
		ms.put(name, "us", float64(p50)/1e3, len(or.lat))
	}
}

// reportLatency reports the q-quantile of the open-loop latencies as name:
// the per-window quantiles' median over the windows whose generator kept to
// schedule.
func reportLatency(ms *metricSet, res *result, name string, q float64, lat, late [][]int64) {
	var per, all []float64
	for i := range lat {
		x, ok := quantile(lat[i], q)
		if !ok {
			continue
		}
		all = append(all, float64(x)/1e3)
		if l, ok := quantile(late[i], 0.99); ok && l <= int64(lateLimit) {
			per = append(per, float64(x)/1e3)
		}
	}
	if len(per) < minValidWindows {
		// A disturbed machine, not a reason to lose the run: report over
		// every window and say so.
		res.Notes = append(res.Notes, fmt.Sprintf("%s: only %d of %d windows had the generator within %v of schedule at p99; all windows used", name, len(per), len(lat), lateLimit))
		per = all
	}
	res.Windows[name] = per
	v, ok := overWindows(per)
	if !ok {
		ms.miss(name, fmt.Sprintf("%d of %d windows have samples", len(per), windows))
		return
	}
	ms.put(name, "us", v, len(per))
}

// pathTaken fails a crash run that recovered some other way than the one
// the workload exists to measure: from a snapshot and the log suffix above
// it, then from its peers — their decisions, or, when those were truncated
// below a newer snapshot, that snapshot.
func (cr crashResult) pathTaken() error {
	switch {
	case cr.snapshots == 0:
		return fmt.Errorf("no snapshot preceded the crash")
	case cr.victim.RecoveryReplayedMsgs == 0:
		return fmt.Errorf("the restarted process replayed nothing from its log")
	case cr.victim.RecoveryFetchedMsgs == 0 && cr.victim.SnapshotInstalls == 0:
		return fmt.Errorf("the restarted process fetched nothing from its peers")
	}
	return nil
}
