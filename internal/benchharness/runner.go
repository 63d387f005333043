package benchharness

import (
	"fmt"
	"math"
	"slices"
	"time"

	"modab/internal/engine"
	"modab/internal/netsim"
	"modab/internal/obs"
	"modab/internal/stats"
	"modab/internal/trace"
	"modab/internal/types"
)

// Scenario is one point of a sweep: a simulated configuration under the
// paper's symmetric workload (§5.1) — n processes of one stack, each
// abcasting Size-byte messages at Load/n msgs/s — and the labels of the
// row it becomes.
type Scenario struct {
	Labels []string
	N      int
	Stack  types.Stack
	// Engine carries the protocol tunables; zero means
	// engine.DefaultConfig(N), the paper's behavior.
	Engine engine.Config
	// Model is the hardware cost model; zero means netsim.DefaultModel().
	Model netsim.CostModel
	// Load is the global offered load in msgs/s, Size the payload bytes.
	Load float64
	Size int
	// Obs tunes the per-process observability recorders (zero = defaults).
	Obs obs.Config
}

// Sample is everything one run yields that a figure reads.
type Sample struct {
	// Recorder holds the paper's metrics over the measurement window:
	// early latency, throughput, flow-control rejections.
	Recorder *netsim.Recorder
	// Deliver is the submit→adeliver histogram merged over all processes,
	// warm-up excluded.
	Deliver obs.HistSnapshot
	// Total and PerProc are the protocol counters, summed and per process.
	Total   trace.Snapshot
	PerProc []trace.Snapshot
	// Utilization is the busiest process's CPU utilization.
	Utilization float64
	// Obs are the per-process observability recorders (lifecycle traces).
	Obs []*obs.Recorder
}

// run simulates one scenario once: warm up, measure, then one more
// virtual second for in-flight messages to land. It is the only place
// the harness builds a loaded cluster.
func run(sc Scenario, warmup, measure time.Duration, seed int64) (Sample, error) {
	lc, err := netsim.NewLoadedCluster(
		netsim.Options{N: sc.N, Stack: sc.Stack, Engine: sc.Engine, Model: sc.Model, Seed: seed, Obs: sc.Obs},
		netsim.Workload{OfferedLoad: sc.Load, Size: sc.Size},
		warmup, measure)
	if err != nil {
		return Sample{}, err
	}
	lc.Run(warmup + measure + time.Second)
	if errs := lc.Errs(); len(errs) > 0 {
		return Sample{}, fmt.Errorf("engine error: %w", errs[0])
	}
	s := Sample{Recorder: lc.Recorder, Deliver: lc.DeliverHistogram(), Total: lc.TotalCounters()}
	for p := types.ProcessID(0); int(p) < sc.N; p++ {
		s.PerProc = append(s.PerProc, lc.Counters(p))
		s.Obs = append(s.Obs, lc.Obs(p))
		s.Utilization = math.Max(s.Utilization, lc.Utilization(p))
	}
	return s, nil
}

// metric reads one number off a sample; false means the run has none
// (no latency sample past saturation, no decision to divide by).
type metric func(Sample) (float64, bool)

// val lifts a reading that every run has into a metric.
func val(f func(Sample) float64) metric {
	return func(s Sample) (float64, bool) { return f(s), true }
}

// derive computes a column's value from the repetitions of one point.
type derive = func(reps []Sample) (float64, bool)

// across folds m over the repetitions that have a value and reports
// stat of them; the column is absent when no repetition has one.
func across(m metric, stat func(*stats.Welford) float64) derive {
	return func(reps []Sample) (float64, bool) {
		var w stats.Welford
		for _, s := range reps {
			if v, ok := m(s); ok {
				w.Add(v)
			}
		}
		return stat(&w), w.N() > 0
	}
}

// mean is m's mean across repetitions, ci95 its 95% confidence half-width.
func mean(m metric) derive { return across(m, (*stats.Welford).Mean) }
func ci95(m metric) derive { return across(m, (*stats.Welford).CI95) }

// perRep is an event count per repetition, in whole events.
func perRep(events func(Sample) int64) derive {
	return func(reps []Sample) (float64, bool) {
		sum := int64(0)
		for _, s := range reps {
			sum += events(s)
		}
		return float64(sum / int64(len(reps))), true
	}
}

// deliverQuantileMs is quantile q of the submit→adeliver histograms of
// all repetitions merged, in ms (log₂ bucket upper bounds, so coarser
// than the mean).
func deliverQuantileMs(q float64) derive {
	return func(reps []Sample) (float64, bool) {
		var h obs.HistSnapshot
		for _, s := range reps {
			h = h.Merge(s.Deliver)
		}
		return h.Quantile(q).Seconds() * 1e3, true
	}
}

// col declares a column; from is nil for a figure that computes its own
// rows.
func col(name, unit string, prec int, from derive) Col {
	return Col{Column{Name: name, Unit: unit, Prec: prec}, from}
}

// The columns load-driven figures read off their samples, each defined
// once: a name means the same reading in every figure.
var (
	throughput = val(func(s Sample) float64 { return s.Recorder.Throughput() })
	// Early latency; past saturation a window can complete no message it
	// also admitted, and such a run has no latency, not a zero one.
	latencyMs = func(s Sample) (float64, bool) {
		return s.Recorder.MeanLatency() * 1e3, s.Recorder.Latency.N() > 0
	}
	thr    = col("thr", "msgs/s", 1, mean(throughput)) // the paper's T
	thrCI  = col("thr_ci", "msgs/s", 1, ci95(throughput))
	lat    = col("lat", "ms", 3, mean(latencyMs))
	latCI  = col("lat_ci", "ms", 3, ci95(latencyMs))
	latP50 = col("lat_p50", "ms", 3, deliverQuantileMs(0.50))
	latP99 = col("lat_p99", "ms", 3, deliverQuantileMs(0.99))
	// Messages ordered per consensus, and point-to-point messages sent per
	// consensus decided, group-wide.
	avgM       = col("M", "", 2, mean(val(func(s Sample) float64 { return s.Total.AvgBatch() })))
	msgsPerDec = col("msgs_per_dec", "", 2, mean(func(s Sample) (float64, bool) {
		perProc := float64(s.Total.ConsensusDecided) / float64(len(s.PerProc))
		return float64(s.Total.MsgsSent) / perProc, perProc > 0
	}))
	// Sender-side batch size (0 unbatched) and protocol overhead bytes per
	// application message — what batching amortizes.
	msgsPerBatch = col("msgs_per_batch", "", 2, mean(val(func(s Sample) float64 { return s.Total.MsgsPerSenderBatch() })))
	hdrBytes     = col("hdr_bytes", "B/msg", 1, mean(val(func(s Sample) float64 { return s.Total.HeaderBytesPerMsg() })))
	util         = col("util", "", 2, mean(val(func(s Sample) float64 { return s.Utilization })))
	blocked      = col("blocked", "", 0, perRep(func(s Sample) int64 { return s.Recorder.Blocked }))
	drops        = col("drops", "", 0, perRep(func(s Sample) int64 { return s.Total.StreamDropped }))
	// What the pipeline window actually did: high-water mark and mean of
	// concurrent instances (a sequential run pins both at 1).
	depthSeen = col("depth_seen", "", 0, func(reps []Sample) (float64, bool) {
		seen := int64(0)
		for _, s := range reps {
			seen = max(seen, s.Total.PipelineDepthObserved)
		}
		return float64(seen), true
	})
	avgDepth = col("avg_depth", "", 2, mean(val(func(s Sample) float64 { return s.Total.AvgPipelineDepth() })))
	// Egress bytes per message adelivered at p0 — of the round-1
	// coordinator p0, the busiest sender and the median one: under
	// all-to-all the coordinator spikes far above the median and grows
	// linearly in n, under ring the profile is flat and O(1).
	coordEgress = col("coord_egress", "B/msg", 0, mean(egressPerMsg(func(sent []int64) int64 { return sent[0] })))
	maxEgress   = col("max_egress", "B/msg", 0, mean(egressPerMsg(slices.Max[[]int64])))
	medEgress   = col("median_egress", "B/msg", 0, mean(egressPerMsg(func(sent []int64) int64 {
		slices.Sort(sent)
		return sent[len(sent)/2]
	})))
	// Ordering-path wire bytes (proposal, ack, estimate, decision frames,
	// fanout included) and payload-dissemination wire bytes (announce,
	// payload-resp, digest-mode relay frames) per adelivered message, and
	// decided-descriptor payload repairs.
	ordBytes    = col("ord_bytes", "B/msg", 1, mean(val(func(s Sample) float64 { return s.Total.OrderedBytesPerMsg() })))
	dissemBytes = col("dissem_bytes", "B/msg", 1, mean(val(func(s Sample) float64 { return s.Total.DisseminatedBytesPerMsg() })))
	fetches     = col("fetches", "", 0, perRep(func(s Sample) int64 { return s.Total.PayloadFetches }))
)

// egressPerMsg divides the egress bytes of the process pick chooses by
// the messages adelivered at p0; a run that delivered nothing there has
// no value.
func egressPerMsg(pick func(sent []int64) int64) metric {
	return func(s Sample) (float64, bool) {
		sent := make([]int64, len(s.PerProc))
		for i, p := range s.PerProc {
			sent[i] = p.BytesSent
		}
		del := s.PerProc[0].ADeliver
		return float64(pick(sent)) / float64(del), del > 0
	}
}
