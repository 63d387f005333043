// Command abbench regenerates the evaluation of "On the Cost of
// Modularity in Atomic Broadcast" (DSN 2007) on the deterministic
// simulator: the §5.2 tables, Figures 8-11 and the post-paper sweeps,
// every one a declaration in internal/benchharness's registry.
//
// Usage:
//
//	abbench -fig all                     # every registered figure (minutes)
//	abbench -fig 10 -reps 5 -measure 8s  # one figure
//	abbench -fig all -json report.json   # also write the report
//	abbench -trace-sample 64             # sampled message lifecycles instead
//
// An unknown -fig is an error that lists the registered ids. Each figure
// and the report shape are described in docs/BENCHMARKS.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"modab/internal/benchharness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "abbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("abbench", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "figure to regenerate: "+strings.Join(benchharness.IDs(), ", ")+" or all")
		reps     = fs.Int("reps", 3, "repetitions per point (95% CIs are computed across them)")
		warmup   = fs.Duration("warmup", 2*time.Second, "virtual warm-up before measuring")
		measure  = fs.Duration("measure", 4*time.Second, "virtual measurement window")
		seed     = fs.Int64("seed", 42, "base simulation seed")
		jsonPath = fs.String("json", "", "also write the produced figures as a machine-readable report to this path")
		traceK   = fs.Uint64("trace-sample", 0, "dump sampled message lifecycle timelines (1 in k messages) from a short run of each stack and exit; k=1 traces everything")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *traceK > 0 {
		return benchharness.TraceSample(out, *traceK, *seed)
	}
	decls, err := benchharness.Select(*fig)
	if err != nil {
		return err
	}
	opts := benchharness.RunOptions{Warmup: *warmup, Measure: *measure, Repetitions: *reps, Seed: *seed}
	var produced []benchharness.Figure
	for _, d := range decls {
		f, err := d.Build(opts)
		if err != nil {
			return err
		}
		benchharness.Render(out, f)
		produced = append(produced, f)
	}
	if *jsonPath != "" {
		if err := benchharness.WriteJSON(*jsonPath, opts, produced); err != nil {
			return err
		}
		fmt.Fprintf(out, "machine-readable report written to %s\n", *jsonPath)
	}
	return nil
}
