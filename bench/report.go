package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// descriptor says where a result file was measured. -compare refuses two
// files whose machines differ: a number from another machine is not a
// baseline.
type descriptor struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	OS         string  `json:"os"`
	GitSHA     string  `json:"git_sha"`
	WALFS      string  `json:"wal_fs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// sameMachine reports how d and o differ in what makes numbers comparable.
func (d descriptor) sameMachine(o descriptor) []string {
	var diff []string
	add := func(what string, a, b any) {
		if a != b {
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", what, a, b))
		}
	}
	add("cpu", d.CPU, o.CPU)
	add("nproc", d.NProc, o.NProc)
	add("gomaxprocs", d.GOMAXPROCS, o.GOMAXPROCS)
	add("go", d.Go, o.Go)
	add("os", d.OS, o.OS)
	add("wal_fs", d.WALFS, o.WALFS)
	add("seconds", d.Seconds, o.Seconds)
	return diff
}

func describe(root, walFS string, seed uint64, seconds float64) descriptor {
	d := descriptor{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		GitSHA:     "unknown",
		WALFS:      walFS,
		Seed:       seed,
		Seconds:    seconds,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				d.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		d.OS += " " + strings.TrimSpace(string(rel))
	}
	// A driver's checkout is not a git repository; the SHA is then unknown.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			d.GitSHA = strings.TrimSpace(string(out))
		}
	}
	return d
}

// resultFile is what -out writes and -compare reads: the machine and every
// run made in one invocation.
type resultFile struct {
	Descriptor descriptor `json:"descriptor"`
	Results    []*result  `json:"results"`
}

func writeResultFile(path string, rf resultFile) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// printResult prints every metric of one run by name, with its unit.
func printResult(out io.Writer, res *result) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(out, "%s  %s  seed=%d  window=%.2fs  ops attempted=%d failed=%d over_limit=%d (open loop, limit %g ms)  correct=%v\n",
		res.Workload, kind, res.Seed, res.WindowS, res.Attempted, res.Failed, res.OverLimit, res.LimitMs, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(out, "  %-46s %16.4f %-7s (n=%d)\n", n, v.Value, v.Unit, v.Samples)
	}
	absent := make([]string, 0, len(res.Absent))
	for n := range res.Absent {
		absent = append(absent, n)
	}
	sort.Strings(absent)
	for _, n := range absent {
		fmt.Fprintf(out, "  %-46s %16s         (%s)\n", n, "absent", res.Absent[n])
	}
	for _, n := range res.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
}

// contractLine prints the one-line JSON result a benchmark driver reads:
// exactly the metrics every workload reports, with value and unit.
func contractLine(out io.Writer, res *result, defs []metricDef) error {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]vu{}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s has no value", d.name)
		}
		metrics[d.name] = vu{v.Value, v.Unit}
	}
	return json.NewEncoder(out).Encode(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
}

// manifest returns BENCHMARK.json, generated from the registry: the
// workloads with their rationale, and the metrics every workload reports.
func manifest() ([]byte, error) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	list := func(defs []metricDef, bounded bool) []metric {
		var out []metric
		for _, d := range expand(defs, metricDef.listed) {
			m := metric{Name: d.name, Unit: d.unit, Better: "lower"}
			if d.higher {
				m.Better = "higher"
			}
			if bounded {
				b := d.bound
				m.Bound = &b
			}
			out = append(out, m)
		}
		return out
	}
	var ws []named
	for _, w := range workloads {
		ws = append(ws, named{w.name, w.why})
	}
	data, err := json.MarshalIndent(struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds,
		Workloads: ws, EndToEnd: list(endToEnd, true), PerLayer: list(perLayer, false),
	}, "", "  ")
	return append(data, '\n'), err
}

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}
