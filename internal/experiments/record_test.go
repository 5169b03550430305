package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ivory/internal/report"
)

// recordDir holds the committed experiment record: `make experiments`
// writes ivory-exp's stdout to experiments.txt and its -outdir CSVs to data/.
const recordDir = "../../results"

// TestExperimentRecord runs the experiment table in `ivory-exp all` order
// and holds its output to the committed record, so a change that moves a
// figure has to move the record with it. Only the cells that differ from
// run to run are masked: Fig 4's timings and the hybrid sweep's rate.
func TestExperimentRecord(t *testing.T) {
	dir := t.TempDir()
	w := report.NewWriter(dir)
	var stdout strings.Builder
	s := &Session{}
	for _, e := range All {
		text, csv, err := e.Run(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		stdout.WriteString(text + "\n")
		if csv != nil {
			if err := csv(w); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
	}
	want, err := os.ReadFile(filepath.Join(recordDir, "experiments.txt"))
	if err != nil {
		t.Fatal(err)
	}
	checkRecord(t, "results/experiments.txt", maskText(string(want)), maskText(stdout.String()))

	got := csvNames(t, dir)
	committed := csvNames(t, filepath.Join(recordDir, "data"))
	if strings.Join(got, " ") != strings.Join(committed, " ") {
		t.Errorf("results/data holds %v, the experiments write %v; regenerate the record with `make experiments`", committed, got)
	}
	for _, name := range got {
		g, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		c, err := os.ReadFile(filepath.Join(recordDir, "data", name))
		if err != nil {
			continue // reported above
		}
		mask := func(s string) string { return s }
		if name == "fig4.csv" {
			mask = maskFig4CSV
		}
		checkRecord(t, "results/data/"+name, mask(string(c)), mask(string(g)))
	}
}

func csvNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		names[i] = filepath.Base(n)
	}
	sort.Strings(names)
	return names
}

var hybridRate = regexp.MustCompile(`over budget \([^)]*/s\)`)

// maskText blanks the run-dependent cells of ivory-exp's stdout: the
// t_spice, t_model and speedup columns of Fig 4, whose widths also vary
// (so its rows are compared field by field), and the hybrid sweep's
// assignments-per-second rate.
func maskText(s string) string {
	lines := strings.Split(s, "\n")
	inFig4 := false
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "Fig. 4 "):
			inFig4 = true
		case l == "":
			inFig4 = false
		case inFig4:
			f := strings.Fields(l)
			if len(f) == 6 && f[1] != "t_spice" {
				f[1], f[2], f[3] = "*", "*", "*"
			}
			lines[i] = strings.Join(f, " ")
		}
		lines[i] = hybridRate.ReplaceAllString(lines[i], "over budget (*/s)")
	}
	return strings.Join(lines, "\n")
}

// maskFig4CSV blanks fig4.csv's t_sim_s, t_model_s and speedup columns.
func maskFig4CSV(s string) string {
	lines := strings.Split(s, "\n")
	for i := 1; i < len(lines); i++ {
		if f := strings.Split(lines[i], ","); len(f) == 6 {
			f[1], f[2], f[3] = "*", "*", "*"
			lines[i] = strings.Join(f, ",")
		}
	}
	return strings.Join(lines, "\n")
}

// checkRecord reports a line diff of a record file against the output
// that should have produced it.
func checkRecord(t *testing.T, name, want, got string) {
	t.Helper()
	if got == want {
		return
	}
	t.Errorf("%s does not match the experiments' output; if the change is meant, regenerate the record with `make experiments`\n--- %s\n+++ output\n%s",
		name, name, lineDiff(strings.Split(want, "\n"), strings.Split(got, "\n")))
}

// lineDiff renders the differing lines of a and b with line numbers,
// stopping after 40. It strips the common prefix and suffix and aligns the
// rest by their longest common subsequence, or pairs it line for line when
// that middle is too long for the quadratic table.
func lineDiff(a, b []string) string {
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	for len(a) > p && len(b) > p && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	a, b = a[p:], b[p:]
	var lcs [][]int // nil: pair line for line below
	if len(a)*len(b) <= 1<<20 {
		lcs = make([][]int, len(a)+1)
		for i := range lcs {
			lcs[i] = make([]int, len(b)+1)
		}
		for i := len(a) - 1; i >= 0; i-- {
			for j := len(b) - 1; j >= 0; j-- {
				if a[i] == b[j] {
					lcs[i][j] = lcs[i+1][j+1] + 1
				} else {
					lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
				}
			}
		}
	}
	var out strings.Builder
	n := 0
	emit := func(sign string, line int, s string) {
		if n < 40 {
			fmt.Fprintf(&out, "%s%4d: %s\n", sign, p+line, s)
		}
		n++
	}
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			i, j = i+1, j+1
		case lcs == nil && i < len(a) && j < len(b):
			emit("-", i+1, a[i])
			emit("+", j+1, b[j])
			i, j = i+1, j+1
		case i < len(a) && (j == len(b) || lcs[i+1][j] >= lcs[i][j+1]):
			emit("-", i+1, a[i])
			i++
		default:
			emit("+", j+1, b[j])
			j++
		}
	}
	if n > 40 {
		fmt.Fprintf(&out, "... %d more differing lines\n", n-40)
	}
	return out.String()
}
