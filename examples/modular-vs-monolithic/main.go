// Modular vs monolithic: the paper's experiment in one program.
//
// Runs both atomic broadcast implementations on the deterministic
// simulator under an identical saturating workload (n=3, 16 KiB messages)
// and prints the head-to-head comparison: latency, throughput, messages
// and payload bytes per consensus — next to the §5.2 analytical
// predictions. The clusters are built through the modab.New facade with
// the simulation driver; the workload generator and latency recorder
// plug into the same delivery events the application would consume.
//
//	go run ./examples/modular-vs-monolithic
package main

import (
	"fmt"
	"log"
	"time"

	"modab"
	"modab/internal/analytical"
	"modab/internal/netsim"
)

func main() {
	const (
		n    = 3
		size = 16384
		load = 4000 // msgs/s offered, well past saturation
	)
	warmup, measure := 2*time.Second, 4*time.Second

	fmt.Printf("group of %d, %d-byte messages, offered load %d msgs/s\n\n", n, size, load)
	fmt.Printf("%-11s %10s %12s %8s %10s %14s\n",
		"stack", "lat(ms)", "thr(msg/s)", "M", "msgs/dec", "payloadB/dec")

	type row struct {
		lat, thr float64
	}
	results := map[modab.Stack]row{}
	for _, stk := range []modab.Stack{modab.Modular, modab.Monolithic} {
		rec := netsim.NewRecorder(n, warmup, warmup+measure)
		cluster, err := modab.New(n, stk, modab.WithSimulation(7))
		if err != nil {
			log.Fatal(err)
		}
		// The simulator publishes deliveries from Run's goroutine: drain the
		// stream alongside it, and feed the recorder once the run is over.
		var events []modab.Event
		drained := make(chan struct{})
		go func(sub *modab.DeliveryStream) {
			defer close(drained)
			for ev := range sub.C() {
				events = append(events, ev)
			}
		}(cluster.Deliveries())
		sim := cluster.Sim()
		netsim.InstallWorkload(sim, netsim.Workload{
			OfferedLoad: load, Size: size, End: warmup + measure,
		}, rec)
		sim.Run(warmup + measure + time.Second)
		if errs := sim.Errs(); len(errs) > 0 {
			log.Fatalf("engine error: %v", errs[0])
		}
		tot := cluster.Stats().Total
		_ = cluster.Close() // ends the stream once its buffer has drained
		<-drained
		for _, ev := range events {
			rec.OnDeliver(ev.P, ev.D.Msg.ID, ev.At)
		}
		decisions := float64(tot.ConsensusDecided) / float64(n)
		lat := rec.MeanLatency() * 1e3
		thr := rec.Throughput()
		results[stk] = row{lat, thr}
		fmt.Printf("%-11s %10.2f %12.1f %8.2f %10.2f %14.0f\n",
			stk, lat, thr, tot.AvgBatch(),
			float64(tot.MsgsSent)/decisions,
			float64(tot.PayloadBytesSent)/decisions)
	}

	mod, mono := results[modab.Modular], results[modab.Monolithic]
	fmt.Printf("\nmeasured modularity cost: latency +%.0f%%, throughput -%.0f%%\n",
		(mod.lat/mono.lat-1)*100, (1-mod.thr/mono.thr)*100)
	fmt.Printf("analytical (§5.2, M=4): messages %d vs %d per consensus, data overhead %.0f%%\n",
		analytical.ModularMessages(n, 4), analytical.MonolithicMessages(n),
		analytical.Overhead(n)*100)
}
