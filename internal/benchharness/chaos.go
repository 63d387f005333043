package benchharness

import (
	"fmt"
	"time"

	"modab/internal/chaos"
	"modab/internal/types"
)

// chaosSeeds is how many randomized schedules the figure runs; each is a
// full two-stack property-checked scenario.
const chaosSeeds = 12

// chaosFigure runs the chaos soak as a figure: seeded randomized fault
// schedules (partitions, lossy links, wrong suspicions, crash+restart)
// against both stacks with every atomic broadcast property checked, and
// per stack the mean injected fault volume per run against what the
// engines spent repairing it (retrans: recovery-path sends). Any
// violation makes the figure an error — a benchmark run on a broken
// protocol is not a result. Only Seed of the run options applies.
func chaosFigure() Decl {
	return Decl{
		ID:     "chaos",
		Title:  fmt.Sprintf("Chaos soak, randomized fault schedules (n=3, %d seeds, durable)", chaosSeeds),
		Labels: []string{"stack"},
		Columns: []Col{
			col("deliveries", "per_proc", 1, nil),
			col("dropped", "", 1, nil), col("duped", "", 1, nil), col("reordered", "", 1, nil),
			col("partition", "s", 2, nil), col("retrans", "", 1, nil),
		},
		Rows: chaosRows,
	}
}

// chaosRows runs the schedules (each against both stacks) and averages
// each stack's totals over them.
func chaosRows(_ Decl, opts RunOptions) ([]Row, error) {
	sums := map[types.Stack]map[string]float64{types.Monolithic: {}, types.Modular: {}}
	for i := 0; i < chaosSeeds; i++ {
		seed := opts.Seed + int64(i)
		sch := chaos.RandomSchedule(chaos.ScheduleRNG(seed), 3, time.Second, true)
		res, err := chaos.Run(seed, sch, chaos.StackConfig{Durable: true})
		if err != nil {
			return nil, err
		}
		if !res.Ok() {
			return nil, fmt.Errorf("property violation during the chaos figure:\n%s", res.Report())
		}
		for _, sr := range res.Stacks {
			v, tot := sums[sr.Stack], sr.Stats.Total
			v["deliveries"] += float64(tot.ADeliver) / float64(sr.Stats.N)
			v["dropped"] += float64(tot.DroppedByFault)
			v["duped"] += float64(tot.DupedByFault)
			v["reordered"] += float64(tot.ReorderedByFault)
			v["partition"] += tot.PartitionSecs()
			v["retrans"] += float64(tot.Retransmissions)
		}
	}
	var rows []Row
	for _, stk := range stacks {
		v := sums[stk]
		for name := range v {
			v[name] /= chaosSeeds
		}
		rows = append(rows, Row{Labels: []string{stk.String()}, Values: v})
	}
	return rows, nil
}
