package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the batch workloads' child
// process, exactly as the harness binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func buildIvoryd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ivoryd")
	out, err := exec.Command("go", "build", "-o", bin, "ivory/cmd/ivoryd").CombinedOutput()
	if err != nil {
		t.Fatalf("build ivoryd: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsTiny runs every workload, untraced and traced, at three ops
// per phase and checks that each passes its output checks and reports
// exactly the metrics BENCHMARK.json names, with the same units.
func TestWorkloadsTiny(t *testing.T) {
	spec, err := loadBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, w.Name, workloads[i].name)
		}
	}
	ivoryd := buildIvoryd(t)
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{Workload: w.name, Seed: 7, Seconds: 60, Trace: trace, Limit: 3, SetupReps: 1,
				Ivoryd: ivoryd, Spans: filepath.Join(dir, w.name+".jsonl")}
			o, err := runWorkload(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			res := o.result(trace)
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d errors %v", w.name, trace, res.Correct, res.Attempted, o.errors())
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			if trace {
				checkSpans(t, cfg.Spans)
			}
		}
	}
}

// checkSpans requires a non-empty span file whose spans are well formed.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.TraceID == 0 || s.SpanID == 0 || s.Name == "" || s.EndNS < s.StartNS {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		n++
	}
	if n == 0 {
		t.Errorf("%s: no spans", path)
	}
}

func inputDigest(t *testing.T, name string, seed int64) string {
	t.Helper()
	if def, _ := lookupWorkload(name); def.server {
		w, err := newServerWorkload(config{Workload: name, Seed: seed, Seconds: 15})
		if err != nil {
			t.Fatal(err)
		}
		return w.digest()
	}
	b, err := newBatch(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return b.digest()
}

// TestInputDigests pins that inputs are a function of the seed.
func TestInputDigests(t *testing.T) {
	for _, w := range workloads {
		a, again, other := inputDigest(t, w.name, 1), inputDigest(t, w.name, 1), inputDigest(t, w.name, 2)
		if a != again {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.name, a)
		}
	}
}

// TestWrongGoldenFails checks that every validation golden is
// enforced: the committed value passes, a value off by 0.1% fails.
func TestWrongGoldenFails(t *testing.T) {
	outs := map[string]any{}
	for _, fig := range []string{"fig6", "fig7", "fig8", "fig9"} {
		out, err := runPaperOp(paperOp{Fig: fig})
		if err != nil {
			t.Fatal(err)
		}
		outs[fig] = out
	}
	w := newPaperValidation(1, paperGoldens)
	opIndex := func(fig string) int {
		for i, op := range w.ops {
			if op.Fig == fig {
				return i
			}
		}
		t.Fatalf("no %s op", fig)
		return 0
	}
	for name := range paperGoldens {
		fig := strings.SplitN(name, ".", 2)[0]
		if err := w.check(opIndex(fig), outs[fig], false); err != nil {
			t.Errorf("committed goldens fail %s: %v", fig, err)
		}
		wrong := map[string]float64{}
		for k, v := range paperGoldens {
			wrong[k] = v
		}
		wrong[name] *= 1.001
		ww := &paperValidation{ops: w.ops, goldens: wrong, acc: w.acc}
		if err := ww.check(opIndex(fig), outs[fig], false); err == nil {
			t.Errorf("golden %s off by 0.1%% passed", name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1)+math.Abs(q2-c.q2)+math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestSummarizeDropsSlowestWindows checks that a stall covering a quarter
// of the timed axis leaves the reported figures where the rest put them.
func TestSummarizeDropsSlowestWindows(t *testing.T) {
	var p phase
	for i := 0; i < 800; i++ {
		lat := 1.0
		if i >= 600 { // the last two of eight windows
			lat = 50
		}
		p.ok(float64(i)*0.01, lat)
	}
	p.TimedS = 8
	p.summarize()
	if p.Samples != 800 || p.P99MS != 1 || math.Abs(p.OpsPerS-100) > 1e-9 {
		t.Errorf("samples %d, p99 %g ms, %g ops/s; want 800, 1 ms, 100 ops/s", p.Samples, p.P99MS, p.OpsPerS)
	}
}

// TestDealtShares checks that every whole block of a dealt mix holds the
// block's exact shares.
func TestDealtShares(t *testing.T) {
	got := dealt(rand.New(rand.NewSource(1)), shares(3, 20), 205)
	if len(got) != 205 {
		t.Fatalf("%d items, want 205", len(got))
	}
	for b := 0; b+20 <= len(got); b += 20 {
		n := 0
		for _, v := range got[b : b+20] {
			if v {
				n++
			}
		}
		if n != 3 {
			t.Errorf("block at %d holds %d of 20, want 3", b, n)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{100, 100.5, 99.5, 101, 99}, "lower", "unchanged"},
		{[]float64{120, 121, 119, 122, 118}, "lower", "worse"},
		{[]float64{120, 121, 119, 122, 118}, "higher", "better"},
		{[]float64{60, 140, 100, 70, 130}, "lower", "unresolved"},
	} {
		if got, _ := verdict(base, c.b, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.b, c.better, got, c.want)
		}
	}
}
