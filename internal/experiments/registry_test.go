package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ivory/internal/report"
)

// TestFig11WritesItsOwnCSV: fig11 run alone writes fig11.csv, and only it.
func TestFig11WritesItsOwnCSV(t *testing.T) {
	dir := t.TempDir()
	w := report.NewWriter(dir)
	for _, e := range All {
		if e.Name != "fig11" {
			continue
		}
		_, csv, err := e.Run(context.Background(), &Session{})
		if err != nil {
			t.Fatal(err)
		}
		if csv == nil {
			t.Fatal("fig11 has no CSV writer")
		}
		if err := csv(w); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.Written) != 1 || filepath.Base(w.Written[0]) != "fig11.csv" {
		t.Fatalf("fig11 wrote %v, want fig11.csv", w.Written)
	}
	raw, err := os.ReadFile(w.Written[0])
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines < 100 {
		t.Errorf("fig11.csv has %d lines, want a waveform", lines)
	}
}

// TestFig11CSVFollowsRunConfigs: a noise run narrowed to some
// configurations writes a column for each of them, not an empty table.
func TestFig11CSVFollowsRunConfigs(t *testing.T) {
	r, err := Fig10Run(context.Background(), TransientOptions{T: 2e-6, Benchmarks: []string{"CFD"}, Configs: []int{0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	w := report.NewWriter(t.TempDir())
	if err := r.writeFig11CSV(w); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(w.Written[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if lines[0] != "t_s,off-chip VRM,4 distributed IVRs" || len(lines) < 100 {
		t.Errorf("fig11.csv: header %q, %d lines", lines[0], len(lines))
	}
}
