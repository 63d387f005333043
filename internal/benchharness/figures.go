package benchharness

import (
	"fmt"
	"strconv"
	"time"

	"modab/internal/analytical"
	"modab/internal/batch"
	"modab/internal/dissem"
	"modab/internal/engine"
	"modab/internal/netsim"
	"modab/internal/types"
)

// stacks under comparison, in the order every table lists them.
var stacks = []types.Stack{types.Monolithic, types.Modular}

// groupSizes are the paper's two group sizes.
var groupSizes = []int{3, 7}

// tuned returns engine.DefaultConfig(n) with edit applied.
func tuned(n int, edit func(*engine.Config)) engine.Config {
	cfg := engine.DefaultConfig(n)
	edit(&cfg)
	return cfg
}

// analyticFigure tabulates the §5.2 model at the paper's M=4, l=16384:
// messages (A1) and payload bytes (A2) per consensus execution for each
// stack, the modularity overhead (n-1)/(n+1), and the reliable-broadcast
// cost of the majority-optimized and the classical algorithm.
func analyticFigure() Decl {
	const m, l = 4, 16384
	return Decl{
		ID:     "analytic",
		Title:  fmt.Sprintf("Analytical model (§5.2) per consensus execution (M=%d, l=%d bytes)", m, l),
		Labels: []string{"n"},
		Columns: []Col{
			col("msgs_modular", "", 0, nil), col("msgs_mono", "", 0, nil), col("msgs_ratio", "", 2, nil),
			col("bytes_modular", "B", 0, nil), col("bytes_mono", "B", 0, nil), col("overhead", "%", 0, nil),
			col("rbcast_majority", "", 0, nil), col("rbcast_classic", "", 0, nil),
		},
		Rows: func(d Decl, _ RunOptions) ([]Row, error) {
			var rows []Row
			for n := 2; n <= 9; n++ {
				mod, mono := float64(analytical.ModularMessages(n, m)), float64(analytical.MonolithicMessages(n))
				rows = append(rows, d.row([]string{strconv.Itoa(n)}, mod, mono, mod/mono,
					float64(analytical.ModularData(n, m, l)), float64(analytical.MonolithicData(n, m, l)),
					analytical.Overhead(n)*100,
					float64(analytical.RBcastMessages(n)), float64(analytical.ClassicRBcastMessages(n))))
			}
			return rows, nil
		},
	}
}

// paperColumns are the readings of the paper's figures and the two
// saturation signals.
var paperColumns = []Col{lat, latCI, thr, thrCI, avgM, msgsPerDec, msgsPerBatch, hdrBytes, util, blocked, drops}

// paperFigure declares one of Figures 8-11: group sizes × stacks × the
// offered load at 16384 B (Figures 8, 10) or × the message size at
// 2000 msgs/s (Figures 9, 11).
func paperFigure(id, title string, byLoad bool) Decl {
	d := Decl{ID: id, Title: title, Labels: []string{"group", "stack", "size"}, Columns: paperColumns}
	xs := []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}
	if byLoad {
		d.Labels[2] = "load"
		xs = []int{250, 500, 1000, 2000, 3000, 4000, 5000, 6000, 7000}
	}
	for _, n := range groupSizes {
		for _, stk := range stacks {
			for _, x := range xs {
				sc := Scenario{Labels: []string{strconv.Itoa(n), stk.String(), strconv.Itoa(x)}, N: n, Stack: stk, Load: 2000, Size: x}
				if byLoad {
					sc.Load, sc.Size = float64(x), 16384
				}
				d.Points = append(d.Points, sc)
			}
		}
	}
	return d
}

// batchingFigure measures sender-side batching on the modular stack at
// 10 processes, 64-byte payloads and saturating load. Both modes run the
// same flow-control window, so the difference is pure amortization of
// the per-frame costs (diffusion sends, receive handling, layer
// dispatches), not admission capacity.
func batchingFigure() Decl {
	point := func(mode string, b batch.Config) Scenario {
		return Scenario{Labels: []string{mode}, N: 10, Stack: types.Modular, Load: 20000, Size: 64,
			Engine: tuned(10, func(c *engine.Config) { c.Window, c.Batch = 64, b })}
	}
	return Decl{
		ID:      "batching",
		Title:   "Sender-side batching amortization, modular stack (n=10, size=64 B, load=20000 msgs/s, window=64)",
		Labels:  []string{"mode"},
		Columns: paperColumns,
		Points: []Scenario{
			point("unbatched", batch.Config{}),
			point("batched", batch.Config{MaxMsgs: 32, MaxDelay: 2 * time.Millisecond}),
		},
	}
}

// ablationFigure measures three design choices docs/ARCHITECTURE.md calls
// out, at 4000 msgs/s of 16384-byte messages: §3.1's majority-relay
// reliable broadcast against the classical ≈n² one (modular stack); the
// flow-control window, hence M, around the paper's claim that M ≈ 4
// optimizes both stacks; and the per-dispatch framework cost, separating
// event routing from extra network messages in the modularity gap.
func ablationFigure() Decl {
	d := Decl{
		ID:      "ablation",
		Title:   "Ablations of design choices (load=4000 msgs/s, size=16384 B)",
		Labels:  []string{"ablation", "variant", "group", "stack"},
		Columns: paperColumns,
	}
	add := func(ablation, variant string, stk types.Stack, cfg engine.Config, model netsim.CostModel) {
		d.Points = append(d.Points, Scenario{Labels: []string{ablation, variant, strconv.Itoa(cfg.N), stk.String()},
			N: cfg.N, Stack: stk, Engine: cfg, Model: model, Load: 4000, Size: 16384})
	}
	for _, classic := range []bool{false, true} {
		variant := map[bool]string{false: "majority", true: "classic"}[classic]
		for _, n := range groupSizes {
			add("rbcast", variant, types.Modular, tuned(n, func(c *engine.Config) { c.ClassicRBcast = classic }), netsim.CostModel{})
		}
	}
	for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
		for _, window := range []int{1, 2, 4, 8, 16} {
			add("window", strconv.Itoa(window), stk, tuned(3, func(c *engine.Config) { c.Window = window }), netsim.CostModel{})
		}
	}
	for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
		for _, mult := range []int{0, 1, 4} {
			model := netsim.DefaultModel()
			model.PerDispatch *= time.Duration(mult)
			add("dispatch", fmt.Sprintf("x%d", mult), stk, engine.DefaultConfig(3), model)
		}
	}
	return d
}

// pipelineFigure sweeps the consensus pipeline window W over both stacks
// at n=3, 64-byte messages and saturating load on the metro cost model
// (netsim.MetroModel), where the sequential stacks are bound by the
// decision round-trip rather than by CPU.
func pipelineFigure() Decl {
	const n, load, size = 3, 120000, 64
	d := Decl{
		ID:      "pipeline",
		Title:   fmt.Sprintf("Consensus pipelining, modular vs monolithic (n=%d, size=%d B, load=%d msgs/s, metro model)", n, size, load),
		Labels:  []string{"group", "stack", "W"},
		Columns: []Col{thr, thrCI, lat, latCI, latP50, latP99, avgM, depthSeen, avgDepth, util},
	}
	for _, stk := range stacks {
		for _, w := range []int{1, 2, 4, 8, 16} {
			d.Points = append(d.Points, Scenario{Labels: []string{strconv.Itoa(n), stk.String(), strconv.Itoa(w)},
				N: n, Stack: stk, Load: load, Size: size, Model: netsim.MetroModel(),
				Engine: tuned(n, func(c *engine.Config) { c.PipelineDepth = w })})
		}
	}
	return d
}

// ringFigure is the coordinator-NIC bottleneck experiment: both stacks
// under all-to-all and ring dissemination over growing groups, 64 KB
// payloads at saturating load on the metro model (10 GbE, 1 ms links),
// where moving bulk bytes — not per-message CPU — binds. The payload is
// sized so the all-to-all coordinator's NIC is the ceiling at scale (n-1
// copies per message) while a ring relayer sends one. W=16 and a window
// of 16 (both strategies alike) let the ring's n-1 serial hops overlap
// across instances; MaxBatch=32 caps a consensus frame near 2 MB so one
// hop's store-and-forward stays under 2 ms. coord_egress is the
// acceptance metric: flat in n under ring, linear under all-to-all.
func ringFigure() Decl {
	const load, size, depth = 12000, 65536, 16
	d := Decl{
		ID:      "ring",
		Title:   fmt.Sprintf("Dissemination topology, all-to-all vs ring (size=%d B, load=%d msgs/s, W=%d, metro model)", size, load, depth),
		Labels:  []string{"group", "stack", "dissem"},
		Columns: []Col{thr, thrCI, lat, latCI, latP50, latP99, coordEgress, maxEgress, medEgress, util},
	}
	for _, stk := range stacks {
		for _, s := range []dissem.Strategy{dissem.AllToAll, dissem.Ring} {
			for _, n := range []int{3, 5, 8, 12, 16} {
				d.Points = append(d.Points, Scenario{Labels: []string{strconv.Itoa(n), stk.String(), s.String()},
					N: n, Stack: stk, Load: load, Size: size, Model: netsim.MetroModel(),
					Engine: tuned(n, func(c *engine.Config) {
						c.Dissemination, c.PipelineDepth, c.Window, c.MaxBatch = s, depth, 16, 32
					})})
			}
		}
	}
	return d
}

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

// digestFigure is the dissemination/ordering split experiment: both
// stacks with digest ordering off (every consensus frame carries the
// payload batch) and on (the batch travels once as an announce, consensus
// orders a ~32-byte descriptor), n=5, 64-byte messages in 1000-message
// sender batches, W=8, over a saturating load sweep on digestModel. The
// window admits two full batches per origin, so overload is rejected at
// submission (blocked) instead of queueing seconds of backlog, and the
// resend period is 2 s because these runs are failure-free and a shorter
// one would re-spread healthy in-flight batches. ord_bytes is the
// acceptance metric: it must collapse when payloads leave the ordering
// path. Compare it at the lowest load, where both modes deliver the full
// offered rate, and compare throughput by each mode's peak across the
// sweep, so a payload-mode overload collapse doesn't inflate the gain.
func digestFigure() Decl {
	const n, size, batchMsgs, depth = 5, 64, 1000, 8
	d := Decl{
		ID: "digest",
		Title: fmt.Sprintf("Digest ordering, payload vs descriptor consensus (n=%d, size=%d B, batch=%d, W=%d, payload-bound model)",
			n, size, batchMsgs, depth),
		Labels:  []string{"group", "stack", "mode", "load"},
		Columns: []Col{thr, thrCI, lat, latCI, ordBytes, dissemBytes, fetches, util, blocked},
	}
	for _, stk := range stacks {
		for _, digest := range []bool{false, true} {
			mode := map[bool]string{false: "payload", true: "digest"}[digest]
			for _, load := range []int{20000, 40000, 100000} {
				d.Points = append(d.Points, Scenario{Labels: []string{strconv.Itoa(n), stk.String(), mode, strconv.Itoa(load)},
					N: n, Stack: stk, Load: float64(load), Size: size, Model: digestModel(),
					Engine: tuned(n, func(c *engine.Config) {
						c.DigestOrdering = digest
						c.Batch = batch.Config{MaxMsgs: batchMsgs, MaxDelay: 5 * time.Millisecond}
						c.Window = 2 * batchMsgs
						c.PipelineDepth = depth
						c.ResendEvery = 2 * time.Second
					})})
			}
		}
	}
	return d
}
