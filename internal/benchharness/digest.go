package benchharness

import (
	"fmt"
	"io"
	"time"

	"modab/internal/batch"
	"modab/internal/engine"
	"modab/internal/netsim"
	"modab/internal/stats"
	"modab/internal/types"
)

// DigestPoint is one measured (stack, digest on/off, load) configuration
// of the digest-ordering figure: the dissemination/ordering split
// experiment. The byte-split columns are what the split changes — with
// digest ordering off every consensus frame carries the payload batch, so
// ordering traffic scales with payload size; with it on the batch travels
// once as an announce and consensus orders a ~32-byte descriptor.
type DigestPoint struct {
	N           int
	Stack       types.Stack
	Digest      bool
	OfferedLoad float64 // msgs/s, global
	Size        int     // bytes

	Throughput float64 // msgs/s (paper's T)
	ThroughCI  float64 // 95% CI half-width across repetitions
	// LatencyMs is the mean adeliver (early) latency in ms over the
	// repetitions that sampled one; LatencySamples counts the messages
	// behind it. Past saturation a window can complete no message it also
	// admitted: such a point has no latency — the table shows "-" and the
	// JSON omits both fields — rather than a zero.
	LatencyMs      float64 `json:",omitempty"`
	LatencyCI      float64 `json:",omitempty"`
	LatencySamples int
	// OrderedBPerMsg is the ordering-path wire bytes (proposal, ack,
	// estimate, decision frames — full frame size, fanout included) per
	// adelivered message: the acceptance metric, which must collapse when
	// payloads leave the ordering path.
	OrderedBPerMsg float64
	// DissemBPerMsg is the payload-dissemination wire bytes (announce,
	// payload-resp, digest-mode relay frames) per adelivered message.
	DissemBPerMsg float64
	// PayloadFetches counts decided-descriptor payload repairs — zero in
	// these failure-free runs unless an announce raced a decision.
	PayloadFetches int64
	Utilization    float64 // busiest-process CPU utilization
	Blocked        int64   // flow-control rejections per repetition
}

// Digest sweep parameters: the paper-scale group under small messages and
// deep sender batches, on a payload-bound cost profile — per-byte receive
// and serialization costs dominate the fixed per-message costs, the
// regime where moving every 1000-message batch through the ordering path
// (once per consensus fanout) rather than once is the binding constraint.
var DigestLoadSweep = []float64{20000, 40000, 100000}

const (
	digestN    = 5
	digestSize = 64
	// digestBatchMsgs packs 1000 application messages per sender batch, so
	// one descriptor stands in for ~90 KB of batch frame on the ordering
	// path.
	digestBatchMsgs = 1000
	digestBatchWait = 5 * time.Millisecond
	// digestWindow admits two full batches per origin — enough to keep the
	// pipeline fed, small enough that overload is rejected at submission
	// (Blocked) instead of queueing seconds of backlog whose latency then
	// trips the crash-path retransmission timers into a rediffusion storm.
	digestWindow   = 2 * digestBatchMsgs
	digestPipeline = 8
	// digestResend slows the crash-path timers: these runs are
	// failure-free, and a resend period below the saturated adeliver
	// latency would re-spread healthy in-flight batches.
	digestResend = 2 * time.Second
)

// digestModel is the payload-bound cost profile: DefaultModel's per-byte
// costs scaled up and its NIC scaled down to a 100 Mb/s fabric, with the
// fixed per-message CPU costs scaled far down so frame handling is priced
// by size, not count. Under DefaultModel the fixed per-submit CPU cost
// alone saturates both modes at the same point and the split is invisible.
func digestModel() netsim.CostModel {
	m := netsim.DefaultModel()
	m.RecvPerMsg /= 100
	m.SendPerMsg /= 100
	m.PerDispatch /= 100
	m.AbcastPerMsg /= 100
	m.RecvNsPerByte *= 10
	m.SendNsPerByte *= 10
	m.BandwidthBytesPerSec /= 10
	return m
}

// RunDigestPoint measures one (stack, digest, load) configuration,
// averaging over repetitions.
func RunDigestPoint(stk types.Stack, digest bool, load float64, opts RunOptions) (DigestPoint, error) {
	opts = opts.withDefaults()
	model := opts.Model
	if model == (netsim.CostModel{}) {
		model = digestModel()
	}
	engCfg := engine.DefaultConfig(digestN)
	engCfg.DigestOrdering = digest
	engCfg.Batch = batch.Config{MaxMsgs: digestBatchMsgs, MaxDelay: digestBatchWait}
	engCfg.Window = digestWindow
	engCfg.PipelineDepth = digestPipeline
	engCfg.ResendEvery = digestResend
	engCfg.Dissemination = opts.Dissemination
	var thr, lat, ordB, disB, util stats.Welford
	var fetches, blocked int64
	samples := 0
	for rep := 0; rep < opts.Repetitions; rep++ {
		lc, err := netsim.NewLoadedCluster(
			netsim.Options{N: digestN, Stack: stk, Engine: engCfg, Seed: opts.Seed + int64(rep), Model: model},
			netsim.Workload{OfferedLoad: load, Size: digestSize},
			opts.Warmup, opts.Measure)
		if err != nil {
			return DigestPoint{}, err
		}
		lc.Run(opts.Warmup + opts.Measure + time.Second)
		if errs := lc.Errs(); len(errs) > 0 {
			return DigestPoint{}, fmt.Errorf("engine error: %w", errs[0])
		}
		tot := lc.TotalCounters()
		thr.Add(lc.Recorder.Throughput())
		if n := lc.Recorder.Latency.N(); n > 0 {
			lat.Add(lc.Recorder.MeanLatency() * 1e3)
			samples += n
		}
		ordB.Add(tot.OrderedBytesPerMsg())
		disB.Add(tot.DisseminatedBytesPerMsg())
		maxUtil := 0.0
		for p := 0; p < digestN; p++ {
			if u := lc.Utilization(types.ProcessID(p)); u > maxUtil {
				maxUtil = u
			}
		}
		util.Add(maxUtil)
		fetches += tot.PayloadFetches
		blocked += lc.Recorder.Blocked
	}
	return DigestPoint{
		N:              digestN,
		Stack:          stk,
		Digest:         digest,
		OfferedLoad:    load,
		Size:           digestSize,
		Throughput:     thr.Mean(),
		ThroughCI:      thr.CI95(),
		LatencyMs:      lat.Mean(),
		LatencyCI:      lat.CI95(),
		LatencySamples: samples,
		OrderedBPerMsg: ordB.Mean(),
		DissemBPerMsg:  disB.Mean(),
		PayloadFetches: fetches / int64(opts.Repetitions),
		Utilization:    util.Mean(),
		Blocked:        blocked / int64(opts.Repetitions),
	}, nil
}

// DigestFigure is the dissemination/ordering split comparison: both
// stacks, digest ordering off and on, over a saturating load sweep.
type DigestFigure struct {
	Title  string
	Points []DigestPoint
}

// FigDigest measures both stacks with digest ordering off and on at every
// load in DigestLoadSweep (n=5, 64-byte messages, 1000-message sender
// batches, payload-bound model).
func FigDigest(opts RunOptions) (DigestFigure, error) {
	fig := DigestFigure{
		Title: fmt.Sprintf("Digest ordering, payload vs descriptor consensus (n=%d, size=%d B, batch=%d, W=%d, payload-bound model)",
			digestN, digestSize, digestBatchMsgs, digestPipeline),
	}
	for _, stk := range Stacks {
		for _, digest := range []bool{false, true} {
			for _, load := range DigestLoadSweep {
				p, err := RunDigestPoint(stk, digest, load, opts)
				if err != nil {
					return fig, err
				}
				fig.Points = append(fig.Points, p)
			}
		}
	}
	return fig, nil
}

// digestMode names a point's ordering mode in the rendered table.
func digestMode(d bool) string {
	if d {
		return "digest"
	}
	return "payload"
}

// RenderDigest writes the digest figure as an aligned text table, then a
// per-stack summary line — the acceptance metrics. The ordered-bytes
// ratio is taken at the lowest load, where both modes deliver the full
// offered rate and the per-message byte costs compare cleanly; the
// throughput ratio compares each mode's peak sustained rate across the
// sweep, so a payload-mode overload collapse (retransmission storms
// re-spreading full batches) doesn't inflate the gain.
func RenderDigest(w io.Writer, fig DigestFigure) {
	fmt.Fprintf(w, "digest — %s\n", fig.Title)
	fmt.Fprintf(w, "%-6s %-11s %-8s %12s %12s %10s %9s %10s %10s %8s %6s %8s\n",
		"group", "stack", "mode", "load(msg/s)", "thr(msg/s)", "±95%CI", "lat(ms)",
		"ordB/msg", "dissB/msg", "fetches", "util", "blocked")
	for _, p := range fig.Points {
		lat := "-"
		if p.LatencySamples > 0 {
			lat = fmt.Sprintf("%.2f", p.LatencyMs)
		}
		fmt.Fprintf(w, "%-6d %-11s %-8s %12.0f %12.1f %10.1f %9s %10.1f %10.1f %8d %6.2f %8d\n",
			p.N, p.Stack, digestMode(p.Digest), p.OfferedLoad, p.Throughput, p.ThroughCI,
			lat, p.OrderedBPerMsg, p.DissemBPerMsg, p.PayloadFetches,
			p.Utilization, p.Blocked)
	}
	for _, stk := range Stacks {
		var offB, onB, offPeak, onPeak float64
		for _, p := range fig.Points {
			if p.Stack != stk {
				continue
			}
			if p.Digest {
				if p.OfferedLoad == DigestLoadSweep[0] {
					onB = p.OrderedBPerMsg
				}
				if p.Throughput > onPeak {
					onPeak = p.Throughput
				}
			} else {
				if p.OfferedLoad == DigestLoadSweep[0] {
					offB = p.OrderedBPerMsg
				}
				if p.Throughput > offPeak {
					offPeak = p.Throughput
				}
			}
		}
		if onB == 0 || offPeak == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: ordered bytes/msg %.1f -> %.1f (%.1fx), peak throughput %.0f -> %.0f msgs/s (%.2fx)\n",
			stk, offB, onB, offB/onB, offPeak, onPeak, onPeak/offPeak)
	}
	fmt.Fprintln(w)
}
