// Modular vs monolithic: the paper's experiment in one program.
//
// Runs both atomic broadcast implementations on the deterministic
// simulator under an identical saturating workload (n=3, 16 KiB messages)
// and prints the head-to-head comparison: latency, throughput, messages
// and payload bytes per consensus — next to the §5.2 analytical
// predictions. The clusters are built the way cmd/abbench builds its
// figures: netsim.NewLoadedCluster wires the workload generator and the
// latency recorder into the simulator's delivery observer.
//
//	go run ./examples/modular-vs-monolithic
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"modab"
	"modab/internal/analytical"
	"modab/internal/netsim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const (
		n    = 3
		size = 16384
		load = 4000 // msgs/s offered, well past saturation
	)
	warmup, measure := 2*time.Second, 4*time.Second

	fmt.Fprintf(w, "group of %d, %d-byte messages, offered load %d msgs/s\n\n", n, size, load)
	fmt.Fprintf(w, "%-11s %10s %12s %8s %10s %14s\n",
		"stack", "lat(ms)", "thr(msg/s)", "M", "msgs/dec", "payloadB/dec")

	type row struct {
		lat, thr float64
	}
	results := map[modab.Stack]row{}
	for _, stk := range []modab.Stack{modab.Modular, modab.Monolithic} {
		lc, err := netsim.NewLoadedCluster(netsim.Options{N: n, Stack: stk, Seed: 7},
			netsim.Workload{OfferedLoad: load, Size: size}, warmup, measure)
		if err != nil {
			return err
		}
		lc.Run(warmup + measure + time.Second)
		if errs := lc.Errs(); len(errs) > 0 {
			return fmt.Errorf("engine error: %w", errs[0])
		}
		tot := lc.TotalCounters()
		decisions := float64(tot.ConsensusDecided) / float64(n)
		lat := lc.Recorder.MeanLatency() * 1e3
		thr := lc.Recorder.Throughput()
		results[stk] = row{lat, thr}
		fmt.Fprintf(w, "%-11s %10.2f %12.1f %8.2f %10.2f %14.0f\n",
			stk, lat, thr, tot.AvgBatch(),
			float64(tot.MsgsSent)/decisions,
			float64(tot.PayloadBytesSent)/decisions)
	}

	mod, mono := results[modab.Modular], results[modab.Monolithic]
	fmt.Fprintf(w, "\nmeasured modularity cost: latency +%.0f%%, throughput -%.0f%%\n",
		(mod.lat/mono.lat-1)*100, (1-mod.thr/mono.thr)*100)
	fmt.Fprintf(w, "analytical (§5.2, M=4): messages %d vs %d per consensus, data overhead %.0f%%\n",
		analytical.ModularMessages(n, 4), analytical.MonolithicMessages(n),
		analytical.Overhead(n)*100)
	return nil
}
