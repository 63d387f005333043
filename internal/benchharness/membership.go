package benchharness

import (
	"fmt"
	"strconv"
	"time"

	"modab/internal/engine"
	"modab/internal/netsim"
	"modab/internal/stats"
	"modab/internal/types"
)

// The rolling-replace workload: moderate load, mid-size messages — the
// churn and the catch-up volume, not the link, are the variables.
const membershipN, membershipLoad, membershipSize = 3, 1000, 1024

// membershipFigure measures dynamic membership end to end: a durable
// 3-process cluster under continuous load replaces every boot process
// inside the measurement window (join a fresh process, let it catch up
// through state transfer, retire an old one — three times, every config
// change riding the total order). Each row reports what the churn cost
// in unique ordered throughput against a steady-membership control run
// on the same seed, the joiners' catch-up latency (CI across joiners and
// repetitions) and fetched messages, and the final config epoch.
func membershipFigure() Decl {
	return Decl{
		ID: "membership",
		Title: fmt.Sprintf("Rolling replace under load (n = %d, load = %d msgs/s, size = %d B): join, catch up, retire ×3",
			membershipN, membershipLoad, membershipSize),
		Labels: []string{"group", "stack"},
		Columns: []Col{
			col("steady", "msgs/s", 1, nil), col("churn", "msgs/s", 1, nil), col("dip", "%", 1, nil),
			col("catchup", "ms", 2, nil), col("catchup_ci", "ms", 2, nil),
			col("fetched", "msgs/joiner", 0, nil), col("epochs", "", 0, nil),
		},
		Rows: membershipRows,
	}
}

// membershipRows runs, per stack and repetition, a control pass and a
// churn pass on one seed.
func membershipRows(d Decl, opts RunOptions) ([]Row, error) {
	var rows []Row
	for _, stk := range stacks {
		var steady, churn, catchup, fetched stats.Welford
		var epoch uint64
		for rep := 0; rep < opts.Repetitions; rep++ {
			seed := opts.Seed + int64(rep)
			thr, _, err := rollingReplace(stk, false, seed, opts)
			if err != nil {
				return nil, err
			}
			steady.Add(thr)
			thr, c, err := rollingReplace(stk, true, seed, opts)
			if err != nil {
				return nil, err
			}
			churn.Add(thr)
			for p := types.ProcessID(membershipN); p < 2*membershipN; p++ {
				joiner := c.Counters(p)
				catchup.Add(float64(joiner.RecoveryNanos) / 1e6)
				fetched.Add(float64(joiner.RecoveryFetchedMsgs))
			}
			epoch = c.View(membershipN).Epoch
		}
		dip := 0.0
		if steady.Mean() > 0 {
			dip = 100 * (1 - churn.Mean()/steady.Mean())
		}
		rows = append(rows, d.row([]string{strconv.Itoa(membershipN), stk.String()},
			steady.Mean(), churn.Mean(), dip, catchup.Mean(), catchup.CI95(), fetched.Mean(), float64(epoch)))
	}
	return rows, nil
}

// memberSender injects Size-byte messages at p every interval inside
// [at, until). Ticks while p is not (yet) live are skipped, which lets
// one loop serve both a joiner scheduled before its spawn and a retired
// process after its crash.
func memberSender(c *netsim.Cluster, p types.ProcessID, body []byte, at, until, interval time.Duration) {
	if at >= until {
		return
	}
	c.At(at, func() {
		if c.Live(p) {
			c.Abcast(p, at, body, func(types.MsgID, time.Duration, error) {})
		}
		memberSender(c, p, body, at+interval, until, interval)
	})
}

// rollingReplace runs one 3-process cluster for the measurement window,
// with (churn) or without (control) the rolling replace, and returns the
// unique-ordered throughput over the window and the finished cluster.
func rollingReplace(stk types.Stack, churn bool, seed int64, opts RunOptions) (float64, *netsim.Cluster, error) {
	const n = membershipN
	w, m := opts.Warmup, opts.Measure
	end := w + m
	delivered := make(map[types.MsgID]struct{})
	inWindow := 0
	c, err := netsim.NewCluster(netsim.Options{
		N: n, Stack: stk, Seed: seed, Durable: true,
		OnDeliver: func(_ types.ProcessID, d engine.Delivery, at time.Duration) {
			if _, seen := delivered[d.Msg.ID]; seen {
				return
			}
			delivered[d.Msg.ID] = struct{}{}
			if at >= w && at < end {
				inWindow++
			}
		},
	})
	if err != nil {
		return 0, nil, err
	}
	body := make([]byte, membershipSize)
	interval := time.Duration(float64(time.Second) * n / membershipLoad)
	for i := 0; i < n; i++ {
		old := types.ProcessID(i)
		if !churn {
			memberSender(c, old, body, 0, end, interval)
			continue
		}
		// Rolling replace, spread across the window: join i+3, retire i,
		// crash i — the retired process stops submitting when its removal
		// is proposed and its successor takes over the load share.
		delta := m / 12
		join := w + m*time.Duration(1+4*i)/12 // w + m/12, w + 5m/12, w + 9m/12
		remove := join + delta
		sponsor := types.ProcessID(i + 1) // 1, 2, then joiner 3
		joiner := types.ProcessID(n + i)
		c.Join(sponsor, joiner, join)
		c.Remove(sponsor, old, remove)
		c.Crash(old, remove+delta)
		memberSender(c, old, body, 0, remove, interval)
		memberSender(c, joiner, body, remove, end, interval)
	}
	c.Run(end + 2*time.Second)
	if errs := c.Errs(); len(errs) > 0 {
		return 0, nil, fmt.Errorf("engine error: %w", errs[0])
	}
	if churn {
		if c.Procs() != 2*n {
			return 0, nil, fmt.Errorf("expected %d procs after the replace, have %d", 2*n, c.Procs())
		}
		if final := c.View(n); len(final.Members) != n {
			return 0, nil, fmt.Errorf("final view has %d members, want %d", len(final.Members), n)
		}
	}
	return float64(inWindow) / m.Seconds(), c, nil
}
