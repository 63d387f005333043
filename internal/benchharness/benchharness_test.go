package benchharness

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tinyOpts keeps the registry walks fast: one repetition, short windows.
var tinyOpts = RunOptions{Warmup: 100 * time.Millisecond, Measure: 200 * time.Millisecond, Repetitions: 1, Seed: 1}

// firstPoint narrows a load-driven declaration to its first scenario;
// sweeps are data, so this touches nothing but the local copy.
func firstPoint(d Decl) Decl {
	if len(d.Points) > 1 {
		d.Points = d.Points[:1]
	}
	return d
}

// TestEveryFigure walks the registry: the first scenario of every figure
// runs at tiny scale, every declared column is present and finite or
// explicitly absent, text and JSON come from the same rows, and the JSON
// round-trips.
func TestEveryFigure(t *testing.T) {
	for _, d := range registry {
		t.Run(d.ID, func(t *testing.T) {
			fig, err := firstPoint(d).Build(tinyOpts)
			if err != nil {
				t.Fatal(err)
			}
			if len(fig.Rows) == 0 || len(fig.Columns) != len(d.Columns) {
				t.Fatalf("%d rows, %d of %d columns", len(fig.Rows), len(fig.Columns), len(d.Columns))
			}
			declared := map[string]bool{}
			for _, c := range fig.Columns {
				if declared[c.Name] {
					t.Errorf("column %q declared twice", c.Name)
				}
				declared[c.Name] = true
			}
			for _, r := range fig.Rows {
				if len(r.Labels) != len(fig.Labels) {
					t.Errorf("row %v: %d labels for %v", r.Labels, len(r.Labels), fig.Labels)
				}
				for name, v := range r.Values {
					if !declared[name] {
						t.Errorf("row %v: value %q has no declared column", r.Labels, name)
					}
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("row %v: %s = %v; a point without a value must be absent", r.Labels, name, v)
					}
				}
			}

			var text strings.Builder
			Render(&text, fig)
			lines := strings.Split(text.String(), "\n")
			if !strings.HasPrefix(lines[0], d.ID+" — ") || len(lines) < 2+len(fig.Rows) {
				t.Fatalf("rendered:\n%s", text.String())
			}
			for i, r := range fig.Rows {
				if got, want := len(strings.Fields(lines[2+i])), len(strings.Fields(strings.Join(r.Labels, " ")))+len(fig.Columns); got != want {
					t.Errorf("row %v renders %d cells, want %d:\n%s", r.Labels, got, want, lines[2+i])
				}
			}

			path := filepath.Join(t.TempDir(), "report.json")
			if err := WriteJSON(path, tinyOpts, []Figure{fig}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var back Report
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if back.Schema != ReportSchema || back.Options != tinyOpts || len(back.Figures) != 1 || !reflect.DeepEqual(back.Figures[0], fig) {
				t.Errorf("JSON round trip changed the report:\n got %+v\nwant %+v under %+v", back, fig, tinyOpts)
			}
			var again strings.Builder
			Render(&again, back.Figures[0])
			if again.String() != text.String() {
				t.Errorf("text rendered from the JSON differs:\n%s\nvs\n%s", again.String(), text.String())
			}
		})
	}
}

// TestAbsentValueIsNotZero pins how a point without a measurement shows:
// "-" in the table, no key in the JSON — the digest figure's "no latency
// sample past saturation" case.
func TestAbsentValueIsNotZero(t *testing.T) {
	fig := Figure{
		ID: "digest", Title: "test", Labels: []string{"load"},
		Columns: []Column{{Name: "thr", Unit: "msgs/s", Prec: 1}, {Name: "lat", Unit: "ms", Prec: 2}},
		Rows: []Row{
			{Labels: []string{"20000"}, Values: map[string]float64{"thr": 19000, "lat": 7.5}},
			{Labels: []string{"100000"}, Values: map[string]float64{"thr": 9000}},
		},
	}
	var text strings.Builder
	Render(&text, fig)
	lines := strings.Split(text.String(), "\n")
	if got := strings.Fields(lines[2]); got[2] != "7.50" {
		t.Errorf("sampled latency cell %q in %q", got[2], lines[2])
	}
	if got := strings.Fields(lines[3]); got[2] != "-" {
		t.Errorf("absent latency cell %q in %q", got[2], lines[3])
	}
	sampled, _ := json.Marshal(fig.Rows[0])
	empty, _ := json.Marshal(fig.Rows[1])
	if !strings.Contains(string(sampled), `"lat":7.5`) || strings.Contains(string(empty), "lat") {
		t.Errorf("JSON latency values:\n%s\n%s", sampled, empty)
	}
	// The derivation side: a metric no repetition has is absent, not 0.
	never := func(Sample) (float64, bool) { return 0, false }
	if _, ok := mean(never)(make([]Sample, 2)); ok {
		t.Error("mean of no samples reported a value")
	}
	if _, ok := ci95(never)(make([]Sample, 2)); ok {
		t.Error("ci95 of no samples reported a value")
	}
}

// TestAnalyticQuotesPaper: §5.2's 16 vs 4 messages at n=3 and the 50% /
// 75% data overhead at n=3 / n=7.
func TestAnalyticQuotesPaper(t *testing.T) {
	decls, err := Select("analytic")
	if err != nil {
		t.Fatal(err)
	}
	fig, err := decls[0].Build(tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	byN := map[string]map[string]float64{}
	for _, r := range fig.Rows {
		byN[r.Labels[0]] = r.Values
	}
	if n3 := byN["3"]; n3["msgs_modular"] != 16 || n3["msgs_mono"] != 4 || n3["overhead"] != 50 {
		t.Errorf("n=3 row: %v", n3)
	}
	if n7 := byN["7"]; n7["overhead"] != 75 {
		t.Errorf("n=7 row: %v", n7)
	}
}

// TestSelect: "all" is the registry, an id is that figure, and an unknown
// id is an error naming every registered id.
func TestSelect(t *testing.T) {
	if all, err := Select("all"); err != nil || len(all) != len(registry) {
		t.Fatalf("all: %d figures, %v", len(all), err)
	}
	if one, err := Select("pipeline"); err != nil || len(one) != 1 || one[0].ID != "pipeline" {
		t.Fatalf("pipeline: %v, %v", one, err)
	}
	_, err := Select("bogus")
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	for _, id := range IDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %q", err, id)
		}
	}
}

// TestRepetitionsGiveCIs: across three seeds the CI columns are finite
// and non-negative and the mean stays below the offered load.
func TestRepetitionsGiveCIs(t *testing.T) {
	decls, err := Select("8")
	if err != nil {
		t.Fatal(err)
	}
	d := firstPoint(decls[0]) // n=3, monolithic, 250 msgs/s
	opts := tinyOpts
	opts.Repetitions = 3
	fig, err := d.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	v := fig.Rows[0].Values
	if v["thr"] <= 0 || v["thr"] > 1.1*d.Points[0].Load || v["lat"] <= 0 || v["lat_ci"] < 0 || v["thr_ci"] < 0 {
		t.Fatalf("degenerate row: %v", v)
	}
	if v["util"] <= 0 || v["util"] > 1 {
		t.Fatalf("utilization: %v", v["util"])
	}
}

// TestFiguresMatchParent is the refactor's oracle: testdata/parent_smoke.json
// holds rows of the report the per-figure harness produced at the commit
// before the registry (abbench -fig all -reps 1 -warmup 200ms -measure
// 400ms -seed 42; field names mapped to column names). The simulator is
// deterministic, so every value must be reproduced exactly. -short keeps
// the n=3 rows. A failure while the netsim goldens still pass is a harness
// bug; after an intended engine change, re-pin the rows from a -json
// report of the new tree (the file is a subset of that shape).
func TestFiguresMatchParent(t *testing.T) {
	data, err := os.ReadFile("testdata/parent_smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Options RunOptions
		Figures []struct {
			ID   string
			Rows []Row
		}
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	opts := golden.Options
	key := func(labels []string) string { return strings.Join(labels, "/") }
	for _, g := range golden.Figures {
		t.Run(g.ID, func(t *testing.T) {
			want := map[string]map[string]float64{}
			for _, r := range g.Rows {
				if testing.Short() && r.Labels[0] != "3" {
					continue
				}
				want[key(r.Labels)] = r.Values
			}
			if len(want) == 0 {
				t.Skip("no n=3 row pinned")
			}
			decls, err := Select(g.ID)
			if err != nil {
				t.Fatal(err)
			}
			d := decls[0]
			if d.Points != nil { // run only the pinned points of a sweep
				var pinned []Scenario
				for _, pt := range d.Points {
					if _, ok := want[key(pt.Labels)]; ok {
						pinned = append(pinned, pt)
					}
				}
				d.Points = pinned
			}
			fig, err := d.Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for _, r := range fig.Rows {
				w, ok := want[key(r.Labels)]
				if !ok {
					continue
				}
				checked++
				// Every value the parent reported; a column it did not have
				// (ring's median_egress) has no oracle here.
				for name, v := range w {
					if got, ok := r.Values[name]; !ok || got != v {
						t.Errorf("%v %s = %v (present %v), parent %v", r.Labels, name, got, ok, v)
					}
				}
			}
			if checked != len(want) {
				t.Errorf("matched %d of %d pinned rows", checked, len(want))
			}
		})
	}
}

// BenchmarkFigures runs the first scenario of every registered figure
// once per iteration and reports its first row's columns as metrics, so
// `go test -bench` prints each figure's shape and bench-smoke compiles and
// exercises every declaration.
func BenchmarkFigures(b *testing.B) {
	opts := RunOptions{Warmup: 500 * time.Millisecond, Measure: 1500 * time.Millisecond, Repetitions: 1, Seed: 42}
	for _, d := range registry {
		b.Run(d.ID, func(b *testing.B) {
			var fig Figure
			for i := 0; i < b.N; i++ {
				var err error
				if fig, err = firstPoint(d).Build(opts); err != nil {
					b.Fatal(err)
				}
			}
			for _, c := range fig.Columns {
				if v, ok := fig.Rows[0].Values[c.Name]; ok {
					b.ReportMetric(v, c.Name)
				}
			}
		})
	}
}
