// Package benchharness regenerates the evaluation on the deterministic
// simulator: the paper's §5.2 tables and §5.3 figures (8-11) and the
// post-paper sweeps (batching, ablations, pipelining, ring dissemination,
// digest ordering, membership churn, chaos soak). Every figure is a Decl
// in one registry — a scenario sweep plus the columns it reads off each
// Sample — built by one runner (run), rendered by one text renderer
// (Render) and written in one JSON shape (Report). cmd/abbench and the
// tests walk the registry; adding a figure is adding a registry entry.
package benchharness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// Column names one value column of a figure.
type Column struct {
	// Name keys the column's value in Row.Values.
	Name string `json:"name"`
	// Unit is the value's unit; empty for counts and ratios.
	Unit string `json:"unit,omitempty"`
	// Prec is the number of decimals the text table prints.
	Prec int `json:"prec"`
}

// Row is one measured point: its labels, parallel to Figure.Labels, and
// its values by column name. A column missing from Values had nothing to
// measure at that point (the text table shows "-"); it is never a zero.
type Row struct {
	Labels []string           `json:"labels"`
	Values map[string]float64 `json:"values"`
}

// Figure is one regenerated table — the only shape a result takes, in
// memory, as text and as JSON.
type Figure struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Labels  []string `json:"labels"`
	Columns []Column `json:"columns"`
	Rows    []Row    `json:"rows"`
}

// RunOptions are the four knobs every figure runs under.
type RunOptions struct {
	// Warmup and Measure bound the virtual measurement window.
	Warmup  time.Duration `json:"warmup_ns"`
	Measure time.Duration `json:"measure_ns"`
	// Repetitions is the number of runs per point, with seeds Seed,
	// Seed+1, ...; means and 95% CIs are computed across them.
	Repetitions int `json:"repetitions"`
	// Seed is the base simulation seed.
	Seed int64 `json:"seed"`
}

// Col is a declared column: a Column and how a load-driven figure derives
// it from the repetitions of one point (false: the point has no value).
type Col struct {
	Column
	From func(reps []Sample) (float64, bool)
}

// Decl declares a figure. A load-driven figure lists Points, each run
// Repetitions times through the one runner, and derives its Columns from
// the samples; a figure with its own scenario body (closed forms, churn,
// fault schedules) sets Rows instead and its Columns carry no From.
type Decl struct {
	ID, Title string
	Labels    []string
	Columns   []Col
	Points    []Scenario
	Rows      func(d Decl, opts RunOptions) ([]Row, error)
}

// registry lists every figure in report order.
var registry = []Decl{
	analyticFigure(),
	paperFigure("8", "Early latency vs. offered load (message size = 16384 bytes)", true),
	paperFigure("9", "Early latency vs. message size (offered load = 2000 msgs/s)", false),
	paperFigure("10", "Throughput vs. offered load (message size = 16384 bytes)", true),
	paperFigure("11", "Throughput vs. message size (offered load = 2000 msgs/s)", false),
	batchingFigure(),
	ablationFigure(),
	pipelineFigure(),
	ringFigure(),
	digestFigure(),
	membershipFigure(),
	chaosFigure(),
}

// IDs returns the registered figure ids in report order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, d := range registry {
		ids[i] = d.ID
	}
	return ids
}

// Select resolves a -fig argument: "all" is the whole registry, a
// registered id is that figure, anything else is an error naming the ids.
func Select(id string) ([]Decl, error) {
	if id == "all" {
		return slices.Clone(registry), nil
	}
	for _, d := range registry {
		if d.ID == id {
			return []Decl{d}, nil
		}
	}
	return nil, fmt.Errorf("unknown figure %q (registered: %s, or all)", id, strings.Join(IDs(), ", "))
}

// row pairs vals with d's columns in declaration order.
func (d Decl) row(labels []string, vals ...float64) Row {
	r := Row{Labels: labels, Values: make(map[string]float64, len(vals))}
	for i, v := range vals {
		r.Values[d.Columns[i].Name] = v
	}
	return r
}

// Build runs the declaration and returns its figure.
func (d Decl) Build(opts RunOptions) (Figure, error) {
	if opts.Repetitions < 1 || opts.Measure <= 0 || opts.Warmup < 0 {
		return Figure{}, fmt.Errorf("figure %s: need reps >= 1, measure > 0, warmup >= 0 (got %+v)", d.ID, opts)
	}
	fig := Figure{ID: d.ID, Title: d.Title, Labels: d.Labels}
	for _, c := range d.Columns {
		fig.Columns = append(fig.Columns, c.Column)
	}
	if d.Rows != nil {
		rows, err := d.Rows(d, opts)
		if err != nil {
			return fig, fmt.Errorf("figure %s: %w", d.ID, err)
		}
		fig.Rows = rows
	}
	for _, sc := range d.Points {
		reps := make([]Sample, opts.Repetitions)
		for i := range reps {
			s, err := run(sc, opts.Warmup, opts.Measure, opts.Seed+int64(i))
			if err != nil {
				return fig, fmt.Errorf("figure %s %v: %w", d.ID, sc.Labels, err)
			}
			reps[i] = s
		}
		row := Row{Labels: sc.Labels, Values: make(map[string]float64, len(d.Columns))}
		for _, c := range d.Columns {
			if v, ok := c.From(reps); ok {
				row.Values[c.Name] = v
			}
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// Render writes the figure as an aligned text table, values at their
// column's precision and "-" where a row has none, then a blank line.
func Render(w io.Writer, fig Figure) {
	fmt.Fprintf(w, "%s — %s\n", fig.ID, fig.Title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	head := slices.Clone(fig.Labels)
	for _, c := range fig.Columns {
		if c.Unit != "" {
			c.Name += "(" + c.Unit + ")"
		}
		head = append(head, c.Name)
	}
	fmt.Fprintln(tw, strings.Join(head, "\t")+"\t")
	for _, r := range fig.Rows {
		cells := slices.Clone(r.Labels)
		for _, c := range fig.Columns {
			if v, ok := r.Values[c.Name]; ok {
				cells = append(cells, strconv.FormatFloat(v, 'f', c.Prec, 64))
			} else {
				cells = append(cells, "-")
			}
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t")+"\t")
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// ReportSchema names the machine-readable output. A figure is data in it
// (labels, columns, rows), so adding or changing a figure does not change
// the schema.
const ReportSchema = "modab-bench/v6"

// Report is the machine-readable form of one abbench run: the options the
// numbers were produced under, so two reports are comparable (or visibly
// not), and every figure built.
type Report struct {
	Schema      string     `json:"schema"`
	GeneratedAt time.Time  `json:"generated_at"`
	Options     RunOptions `json:"options"`
	Figures     []Figure   `json:"figures"`
}

// WriteJSON writes the figures built under opts to path as a Report
// (pretty-printed, trailing newline).
func WriteJSON(path string, opts RunOptions, figs []Figure) error {
	data, err := json.MarshalIndent(Report{ReportSchema, time.Now().UTC(), opts, figs}, "", "  ")
	if err != nil {
		return fmt.Errorf("benchharness: encode report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("benchharness: write report: %w", err)
	}
	return nil
}
