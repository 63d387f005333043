package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"modab/internal/benchharness"
)

// TestUnknownFigureIsAnError: -fig resolves through the registry, so a
// misspelt id fails and says what exists instead of printing nothing and
// exiting 0 (or, with -json, writing an empty report).
func TestUnknownFigureIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out strings.Builder
	err := run([]string{"-fig", "bogus", "-json", path}, &out)
	if err == nil {
		t.Fatalf("run accepted -fig bogus; output:\n%s", out.String())
	}
	for _, id := range benchharness.IDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %q", err, id)
		}
	}
	if _, statErr := os.Stat(path); statErr == nil {
		t.Error("a report was written for an unknown figure")
	}
}

// TestRunWritesTextAndReport drives the CLI path end to end on the
// instant figure: flags, table on stdout, report on disk.
func TestRunWritesTextAndReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out strings.Builder
	if err := run([]string{"-fig", "analytic", "-reps", "1", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "analytic — ") {
		t.Errorf("stdout:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchharness.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != benchharness.ReportSchema || len(rep.Figures) != 1 || rep.Figures[0].ID != "analytic" || rep.Options.Repetitions != 1 {
		t.Errorf("report: %+v", rep)
	}
}
