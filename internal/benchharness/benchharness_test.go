package benchharness

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"modab/internal/types"
)

// quickOpts keeps harness tests fast: one repetition, short windows.
func quickOpts() RunOptions {
	return RunOptions{
		Warmup:      300 * time.Millisecond,
		Measure:     700 * time.Millisecond,
		Repetitions: 1,
		Seed:        1,
	}
}

func TestRunPointProducesSaneNumbers(t *testing.T) {
	p, err := RunPoint(3, types.Monolithic, 1000, 1024, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if p.Throughput <= 0 || p.LatencyMs <= 0 {
		t.Fatalf("degenerate point: %+v", p)
	}
	if p.Throughput > 1100 {
		t.Fatalf("throughput above offered load: %v", p.Throughput)
	}
	if p.Utilization <= 0 || p.Utilization > 1 {
		t.Fatalf("utilization: %v", p.Utilization)
	}
}

func TestRunPointRepetitionCI(t *testing.T) {
	opts := quickOpts()
	opts.Repetitions = 3
	p, err := RunPoint(3, types.Modular, 2000, 4096, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.LatencyCI < 0 || p.ThroughCI < 0 {
		t.Fatalf("negative CI: %+v", p)
	}
}

func TestRenderFormats(t *testing.T) {
	fig := Figure{
		ID:     "fig8",
		Title:  "test",
		XLabel: "offered load (msgs/s)",
		Points: []Point{{N: 3, Stack: types.Modular, OfferedLoad: 1000, LatencyMs: 5, Throughput: 900, M: 4}},
	}
	var sb strings.Builder
	Render(&sb, fig)
	out := sb.String()
	for _, want := range []string{"fig8", "modular", "1000", "5.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

// TestRenderDigestNoLatencySamples: a point whose recorder took no
// latency sample shows "-" and omits the latency fields from the JSON
// instead of reporting a zero latency.
func TestRenderDigestNoLatencySamples(t *testing.T) {
	fig := DigestFigure{Title: "test", Points: []DigestPoint{
		{N: 5, Stack: types.Modular, OfferedLoad: 20000, Throughput: 19000, LatencyMs: 7.5, LatencySamples: 90},
		{N: 5, Stack: types.Modular, OfferedLoad: 100000, Throughput: 9000},
	}}
	var sb strings.Builder
	RenderDigest(&sb, fig)
	rows := strings.Split(sb.String(), "\n")
	if strings.Fields(rows[2])[6] != "7.50" || strings.Fields(rows[3])[6] != "-" {
		t.Errorf("latency column (7th):\n%s\n%s", rows[2], rows[3])
	}
	sampled, _ := json.Marshal(fig.Points[0])
	empty, _ := json.Marshal(fig.Points[1])
	if !strings.Contains(string(sampled), `"LatencyMs":7.5`) || strings.Contains(string(empty), "LatencyMs") || strings.Contains(string(empty), "LatencyCI") {
		t.Errorf("JSON latency fields:\n%s\n%s", sampled, empty)
	}
}

func TestRenderAnalyticalQuotesPaper(t *testing.T) {
	var sb strings.Builder
	RenderAnalytical(&sb, 4, 16384)
	out := sb.String()
	// 16 vs 4 messages at n=3, 50%/75% overhead.
	for _, want := range []string{"16", "50%", "75%"} {
		if !strings.Contains(out, want) {
			t.Errorf("analytical table missing %q in:\n%s", want, out)
		}
	}
}

// TestRunKVPointProducesSaneNumbers exercises the replicated-KV point:
// commands apply, latency is measured, and snapshots run.
func TestRunKVPointProducesSaneNumbers(t *testing.T) {
	opts := quickOpts()
	opts.Warmup = 500 * time.Millisecond
	opts.Measure = 2 * time.Second
	p, err := RunKVPoint(3, types.Monolithic, 1000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.OpsPerSec <= 0 || p.ApplyMeanMs <= 0 {
		t.Fatalf("degenerate KV point: %+v", p)
	}
	if p.ApplyP99Ms < p.ApplyMeanMs {
		t.Fatalf("p99 below mean: %+v", p)
	}
	if p.SnapshotsTaken == 0 {
		t.Fatalf("no snapshots under sustained load: %+v", p)
	}

	var sb strings.Builder
	RenderKV(&sb, KVFigure{Title: "test", Points: []KVPoint{p}})
	if !strings.Contains(sb.String(), "monolithic") {
		t.Errorf("render missing stack name:\n%s", sb.String())
	}
}

// TestTinyFigureSweep runs a reduced Fig-10-shaped sweep end to end.
func TestTinyFigureSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	opts := quickOpts()
	// Shrink the sweep axes for the test, restore after.
	loads, groups := LoadSweep, GroupSizes
	LoadSweep = []float64{500, 2000}
	GroupSizes = []int{3}
	defer func() { LoadSweep, GroupSizes = loads, groups }()

	fig, err := Fig10(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 2*len(Stacks) {
		t.Fatalf("points = %d", len(fig.Points))
	}
	// Below saturation both stacks deliver the offered load.
	for _, p := range fig.Points {
		if p.OfferedLoad == 500 && (p.Throughput < 450 || p.Throughput > 550) {
			t.Errorf("%s at 500: thr %.0f", p.Stack, p.Throughput)
		}
	}
}
