// Command bench is the wall-clock benchmark of the modab library: four
// workloads on the real drivers, both stacks with identical inputs, a
// correctness check before any number is printed, and a separate traced run
// that attributes the cost layer by layer. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measured time of one
// run. Two stacks, two loops and five windows each make every window
// defaultSeconds/20 = 1.2 s long. The issue's starting point was 2 s
// windows; a driver's budget of 92 runs in 3420 s leaves about 37 s per run,
// set-up, drains and checks included.
const defaultSeconds = 24

// watchdog ends a run that hangs, well inside the 180 s a driver allows.
const watchdog = 150 * time.Second

func main() {
	var (
		workloadName = flag.String("workload", "", "run this workload only, and end with the one-line JSON result (default: all four)")
		seed         = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", defaultSeconds, "measured time of one run, both stacks together")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		traced       = flag.Bool("traced", false, "same as -trace 1")
		runs         = flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
		out          = flag.String("out", "", "write the machine descriptor and every run to this file, for -compare")
		compare      = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		printSpec    = flag.Bool("manifest", false, "print BENCHMARK.json as the metric registry defines it")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case *printSpec:
		var data []byte
		if data, err = manifest(); err == nil {
			_, err = os.Stdout.Write(data)
		}
	default:
		err = run(*workloadName, *seed, *seconds, *traced || *trace != 0, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, runs int, out string) error {
	if seconds <= 0 || runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	walDir, walFS, err := pickWALDir(build)
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)

	todo := workloads
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		todo = []workload{w}
	}
	rf := resultFile{Descriptor: describe(root, walFS, seed, seconds)}
	var last *result
	for _, w := range todo {
		for i := 0; i < runs; i++ {
			cfg := runConfig{seed: seed + uint64(i), seconds: seconds, walDir: walDir}
			timer := time.AfterFunc(watchdog, func() {
				fmt.Fprintf(os.Stderr, "bench: %s still running after %v; giving up\n", w.name, watchdog)
				os.RemoveAll(walDir)
				os.Exit(2)
			})
			var res *result
			if traced {
				res, err = runTraced(w, cfg, filepath.Join(root, "bench", "out"))
			} else {
				res, err = runWorkload(w, cfg)
			}
			timer.Stop()
			if res != nil {
				printResult(os.Stdout, res)
				rf.Results = append(rf.Results, res)
			}
			if err == nil {
				err = res.complete(w)
			}
			if err != nil {
				return err
			}
			last = res
		}
	}
	if out != "" {
		if err := writeResultFile(out, rf); err != nil {
			return err
		}
	}
	if name != "" && runs == 1 {
		if traced {
			return contractLine(os.Stdout, last, expand(perLayer, metricDef.listed))
		}
		return contractLine(os.Stdout, last, expand(endToEnd, metricDef.listed))
	}
	return nil
}

// complete fails a run that lacks a metric its workload should report — an
// absent metric is never printed as 0, and never passes silently — or that
// reports one the registry does not give that workload.
func (res *result) complete(w workload) error {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	var wrong []string
	want := map[string]bool{}
	for _, d := range expand(defs, func(d metricDef) bool { return d.applies(w) }) {
		want[d.name] = true
		if _, ok := res.Metrics[d.name]; !ok {
			why := res.Absent[d.name]
			if why == "" {
				why = "not measured"
			}
			wrong = append(wrong, fmt.Sprintf("%s (%s)", d.name, why))
		}
	}
	for name := range res.Metrics {
		if !want[name] {
			wrong = append(wrong, name+" (not a metric of this workload)")
		}
	}
	if len(wrong) > 0 {
		sort.Strings(wrong)
		return fmt.Errorf("%s: wrong metric set: %v", w.name, wrong)
	}
	return nil
}
