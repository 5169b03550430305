package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// recordedRun is one run read back from saved output.
type recordedRun struct {
	file string
	side string
	head runHeader
	res  result
}

// readRuns parses saved stdout: each result line belongs to the bench_run
// header line before it.
func readRuns(files []string, side string) ([]recordedRun, error) {
	var runs []recordedRun
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var head *runHeader
		sc := bufio.NewScanner(strings.NewReader(string(data)))
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			var h map[string]runHeader
			if strings.HasPrefix(line, `{"bench_run"`) && json.Unmarshal([]byte(line), &h) == nil {
				hh := h["bench_run"]
				head = &hh
				continue
			}
			var r result
			if head != nil && strings.HasPrefix(line, `{"correct"`) && json.Unmarshal([]byte(line), &r) == nil {
				runs = append(runs, recordedRun{file: f, side: side, head: *head, res: r})
				head = nil
			}
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return runs, nil
}

// verdict compares side B against side A for one metric. A spread wider
// than the bound on either side leaves the pair unresolved, unless every
// run of B beats (or trails) every run of A; beyond that, B is worse when
// its median is worse by more than the bound, and better when its median
// is better by more than the bound and by more than A's own quartile
// spread.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	worse := div(mb-ma, math.Abs(ma))
	if better == "higher" {
		worse = -worse
	}
	beats := func(x, y float64) bool { // x better than y
		if better == "higher" {
			return x > y
		}
		return x < y
	}
	allB, allA := true, true
	for _, x := range b {
		for _, y := range a {
			allB = allB && beats(x, y)
			allA = allA && beats(y, x)
		}
	}
	spread := math.Max(div(qa3-qa1, math.Abs(ma)), div(qb3-qb1, math.Abs(mb)))
	switch {
	case spread > bound && !allA && !allB:
		return "unresolved", worse
	case worse > bound:
		return "worse", worse
	case -worse > bound && math.Abs(mb-ma) > qa3-qa1:
		return "better", worse
	}
	return "unchanged", worse
}

// compareMain implements `compare <runs-A...> -- <runs-B...>`, run from
// the repository root. Each file holds the saved stdout of one or more
// runs. For every workload and metric it prints both sides' median and
// quartiles and a verdict under the bound BENCHMARK.json fixes (per-layer
// metrics have no bound and get none), then lists every run. It exits 1
// when any pair is worse or unresolved.
func compareMain(args []string, stdout, stderr io.Writer) int {
	var filesA, filesB []string
	sideB := false
	for _, f := range args {
		switch {
		case f == "--":
			sideB = true
		case sideB:
			filesB = append(filesB, f)
		default:
			filesA = append(filesA, f)
		}
	}
	if len(filesA) == 0 || len(filesB) == 0 {
		logf(stderr, "usage: bench compare <runs-A...> -- <runs-B...>")
		return 2
	}
	spec, err := loadBenchSpec("BENCHMARK.json")
	if err == nil {
		err = compare(spec, filesA, filesB, stdout)
	}
	if errors.Is(err, errRegression) {
		return 1
	}
	if err != nil {
		logf(stderr, "bench compare: %v", err)
		return 2
	}
	return 0
}

var errRegression = errors.New("a metric is worse or unresolved")

func compare(spec *benchSpec, filesA, filesB []string, out io.Writer) error {
	runsA, err := readRuns(filesA, "A")
	if err != nil {
		return err
	}
	runsB, err := readRuns(filesB, "B")
	if err != nil {
		return err
	}
	type key struct {
		workload string
		trace    int
	}
	group := func(runs []recordedRun) map[key][]recordedRun {
		g := map[key][]recordedRun{}
		for _, r := range runs {
			k := key{r.head.Workload, r.head.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	ga, gb := group(runsA), group(runsB)
	var keys []key
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return errors.New("no workload has runs on both sides")
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	values := func(runs []recordedRun, name string) []float64 {
		var v []float64
		for _, r := range runs {
			if m, ok := r.res.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
		return v
	}
	regressed := false
	var w strings.Builder
	fmt.Fprintf(&w, "%-17s %-34s %-6s %30s %30s %8s  %s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "worse", "verdict")
	for _, k := range keys {
		metrics := spec.EndToEnd
		if k.trace == 1 {
			metrics = spec.PerLayer
		}
		for _, m := range metrics {
			a, b := values(ga[k], m.Name), values(gb[k], m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			qa1, ma, qa3 := quartiles(a)
			qb1, mb, qb3 := quartiles(b)
			v, worse := "-", div(mb-ma, math.Abs(ma))
			if m.Better == "higher" {
				worse = -worse
			}
			if m.Bound != nil {
				v, worse = verdict(a, b, m.Better, *m.Bound)
				regressed = regressed || v == "worse" || v == "unresolved"
			}
			fmt.Fprintf(&w, "%-17s %-34s %-6s %30s %30s %+7.1f%%  %s\n", k.workload, m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", ma, qa1, qa3), fmt.Sprintf("%.4g [%.4g, %.4g]", mb, qb1, qb3), 100*worse, v)
		}
	}
	w.WriteString("\nruns:\n")
	for _, r := range append(runsA, runsB...) {
		fmt.Fprintf(&w, "  %s %-17s seed %-4d trace %d correct %-5v attempted %-6d failed %d  %s\n",
			r.side, r.head.Workload, r.head.Seed, r.head.Trace, r.res.Correct, r.res.Attempted, r.res.Failed, r.file)
	}
	if _, err := io.WriteString(out, w.String()); err != nil {
		return err
	}
	if regressed {
		return errRegression
	}
	return nil
}
