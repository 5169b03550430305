package topology

import (
	"math"
	"testing"
)

// genResult lets multi-value generator calls forward into analyze:
// analyze(t, r(SeriesParallel(3, 1))).
type genResult struct {
	top *Topology
	err error
}

func r(top *Topology, err error) genResult { return genResult{top, err} }

func analyze(t *testing.T, res genResult) *Analysis {
	t.Helper()
	top, err := res.top, res.err
	if err != nil {
		t.Fatal(err)
	}
	an, err := top.Analyze()
	if err != nil {
		t.Fatalf("%s: %v", top.Name, err)
	}
	return an
}

func wantClose(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.6f, want %.6f", name, got, want)
	}
}

func TestSeriesParallel2to1(t *testing.T) {
	an := analyze(t, r(SeriesParallel(2, 1)))
	wantClose(t, "ratio", an.Ratio, 0.5, 1e-6)
	// One fly cap, a_c = 1/2.
	wantClose(t, "SumAC", an.SumAC, 0.5, 1e-6)
	// 4 switches each carrying 1/2 per unit output charge.
	wantClose(t, "SumAR", an.SumAR, 2.0, 1e-6)
	if an.NumCaps != 1 || an.NumSwitches != 4 {
		t.Errorf("element counts: %d caps, %d switches", an.NumCaps, an.NumSwitches)
	}
	// Cap holds Vin/2.
	wantClose(t, "capV", an.CapVoltages[0], 0.5, 1e-6)
}

func TestSeriesParallelClassicRatios(t *testing.T) {
	for p := 2; p <= 6; p++ {
		an := analyze(t, r(SeriesParallel(p, 1)))
		wantClose(t, an.Name+" ratio", an.Ratio, 1/float64(p), 1e-6)
		// Known closed forms: SumAC = (p-1)/p, SumAR = (3p-2)/p.
		wantClose(t, an.Name+" SumAC", an.SumAC, float64(p-1)/float64(p), 1e-6)
		wantClose(t, an.Name+" SumAR", an.SumAR, float64(3*p-2)/float64(p), 1e-6)
	}
}

func TestSeriesParallelFractionalRatios(t *testing.T) {
	for p := 2; p <= 6; p++ {
		an := analyze(t, r(SeriesParallel(p, p-1)))
		wantClose(t, an.Name+" ratio", an.Ratio, float64(p-1)/float64(p), 1e-6)
		wantClose(t, an.Name+" SumAC", an.SumAC, float64(p-1)/float64(p), 1e-6)
		wantClose(t, an.Name+" SumAR", an.SumAR, float64(3*p-2)/float64(p), 1e-6)
		// Every cap holds Vin/p.
		for i, v := range an.CapVoltages {
			wantClose(t, an.Name+" capV", v, 1/float64(p), 1e-6)
			_ = i
		}
	}
}

func TestSeriesParallelRejectsUnsupported(t *testing.T) {
	if _, err := SeriesParallel(5, 2); err == nil {
		t.Error("5:2 should not be series-parallel")
	}
	if _, err := SeriesParallel(1, 1); err == nil {
		t.Error("p < 2 must be rejected")
	}
	if _, err := SeriesParallel(3, 3); err == nil {
		t.Error("q >= p must be rejected")
	}
}

func TestLadderRatios(t *testing.T) {
	cases := []struct{ p, q int }{
		{2, 1}, {3, 1}, {3, 2}, {4, 1}, {4, 3}, {5, 2}, {5, 3}, {7, 3},
	}
	for _, c := range cases {
		an := analyze(t, r(Ladder(c.p, c.q)))
		wantClose(t, an.Name+" ratio", an.Ratio, float64(c.q)/float64(c.p), 1e-6)
	}
}

func TestLadderRejectsBadArgs(t *testing.T) {
	if _, err := Ladder(1, 1); err == nil {
		t.Error("p < 2 must be rejected")
	}
	if _, err := Ladder(4, 4); err == nil {
		t.Error("q >= p must be rejected")
	}
	if _, err := Ladder(4, 0); err == nil {
		t.Error("q < 1 must be rejected")
	}
}

func TestLadderCostsMoreThanSeriesParallel(t *testing.T) {
	// For the same 3:1 ratio the ladder's SSL metric must be at least the
	// series-parallel one; SP is SSL-optimal in this ratio family.
	sp := analyze(t, r(SeriesParallel(3, 1)))
	ld := analyze(t, r(Ladder(3, 1)))
	if ld.SumAC < sp.SumAC-1e-9 {
		t.Errorf("ladder SumAC %.4f unexpectedly beats series-parallel %.4f", ld.SumAC, sp.SumAC)
	}
}

func TestDicksonRatios(t *testing.T) {
	for p := 2; p <= 6; p++ {
		an := analyze(t, r(Dickson(p)))
		wantClose(t, an.Name+" ratio", an.Ratio, 1/float64(p), 1e-6)
	}
	if _, err := Dickson(1); err == nil {
		t.Error("Dickson(1) must be rejected")
	}
}

func TestDoublerRatios(t *testing.T) {
	for k := 1; k <= 4; k++ {
		an := analyze(t, r(Doubler(k)))
		wantClose(t, an.Name+" ratio", an.Ratio, 1/float64(int(1)<<k), 1e-6)
	}
	if _, err := Doubler(0); err == nil {
		t.Error("Doubler(0) must be rejected")
	}
}

// fib returns the k-th Fibonacci number, the ratio oracle of
// TestFibonacciRatios, with fib(1) = fib(2) = 1.
func fib(k int) int {
	a, bb := 1, 1
	for i := 3; i <= k; i++ {
		a, bb = bb, a+bb
	}
	if k <= 0 {
		return 0
	}
	return bb
}

func TestFibonacciRatios(t *testing.T) {
	for k := 1; k <= 5; k++ {
		an := analyze(t, r(Fibonacci(k)))
		want := 1 / float64(fib(k+2))
		wantClose(t, an.Name+" ratio", an.Ratio, want, 1e-6)
	}
	if _, err := Fibonacci(0); err == nil {
		t.Error("Fibonacci(0) must be rejected")
	}
}

func TestFibHelper(t *testing.T) {
	want := []int{0, 1, 1, 2, 3, 5, 8, 13}
	for k, w := range want {
		if fib(k) != w {
			t.Errorf("fib(%d) = %d, want %d", k, fib(k), w)
		}
	}
}

// Power conservation: for every generated topology, the ideal input charge
// per unit output charge equals the conversion ratio.
func TestInputChargeEqualsRatio(t *testing.T) {
	var tops []*Topology
	add := func(tp *Topology, err error) {
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, tp)
	}
	for p := 2; p <= 5; p++ {
		add(SeriesParallel(p, 1))
		add(SeriesParallel(p, p-1))
		for q := 1; q < p; q++ {
			add(Ladder(p, q))
		}
		add(Dickson(p))
	}
	for k := 1; k <= 4; k++ {
		add(Doubler(k))
		add(Fibonacci(k))
	}
	for _, tp := range tops {
		an, err := tp.Analyze()
		if err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		if math.Abs(an.InputCharge-an.Ratio) > 1e-5 {
			t.Errorf("%s: input charge %.6f != ratio %.6f (power conservation violated)",
				tp.Name, an.InputCharge, an.Ratio)
		}
	}
}

// Sanity across all families: multipliers non-negative, voltages within
// [0, 1] of Vin, switch blocking voltages bounded by Vin.
func TestAnalysisInvariants(t *testing.T) {
	var tops []*Topology
	add := func(tp *Topology, err error) {
		if err == nil {
			tops = append(tops, tp)
		}
	}
	for p := 2; p <= 6; p++ {
		add(SeriesParallel(p, 1))
		add(SeriesParallel(p, p-1))
		for q := 1; q < p; q++ {
			add(Ladder(p, q))
		}
		add(Dickson(p))
	}
	for _, tp := range tops {
		an, err := tp.Analyze()
		if err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		for i, m := range an.CapMultipliers {
			if m < -1e-12 {
				t.Errorf("%s cap %d: negative multiplier %v", tp.Name, i, m)
			}
		}
		for i, v := range an.CapVoltages {
			if v < -1e-9 || v > 1+1e-9 {
				t.Errorf("%s cap %d: voltage %v outside [0,1]", tp.Name, i, v)
			}
		}
		for i, v := range an.SwitchBlockVoltages {
			if v < -1e-9 || v > 1+1e-9 {
				t.Errorf("%s switch %d: blocking voltage %v outside [0,1]", tp.Name, i, v)
			}
		}
		if an.SumAC <= 0 || an.SumAR <= 0 {
			t.Errorf("%s: non-positive multiplier sums", tp.Name)
		}
	}
}

func TestDegenerateTopologies(t *testing.T) {
	// Empty netlist.
	b := NewBuilder("empty")
	if _, err := b.Build().Analyze(); err == nil {
		t.Error("empty netlist must fail")
	}
	// Switch shorting Vin to Gnd in phase 1: inconsistent KVL.
	b = NewBuilder("short")
	b.AddSwitch(Vin, Gnd, Phi1, "bad")
	b.AddCap(Vin, Vout, "c")
	if _, err := b.Build().Analyze(); err == nil {
		t.Error("shorted input must fail")
	}
	// Output never driven: a cap dangling between internal nodes only.
	b = NewBuilder("floating")
	n1 := b.NewNode()
	n2 := b.NewNode()
	b.AddCap(n1, n2, "c")
	b.AddSwitch(n1, Vin, Phi1, "s1")
	b.AddSwitch(n2, Gnd, Phi1, "s2")
	if _, err := b.Build().Analyze(); err == nil {
		t.Error("undriven output must fail")
	}
}

func TestCustomAnalysis(t *testing.T) {
	an, err := Custom("user 4:1", 0.25, []float64{0.5, 0.25}, []float64{0.25, 0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "SumAC", an.SumAC, 0.75, 1e-12)
	wantClose(t, "SumAR", an.SumAR, 1.0, 1e-12)
	if an.NumCaps != 2 || an.NumSwitches != 3 {
		t.Error("custom element counts wrong")
	}
	if _, err := Custom("bad", -1, []float64{1}, []float64{1}); err == nil {
		t.Error("negative ratio must fail")
	}
	if _, err := Custom("bad", 0.5, nil, []float64{1}); err == nil {
		t.Error("empty vectors must fail")
	}
	if _, err := Custom("bad", 0.5, []float64{-1}, []float64{1}); err == nil {
		t.Error("negative multipliers must fail")
	}
}

func TestBuilderNodes(t *testing.T) {
	b := NewBuilder("nodes")
	n1 := b.NewNode()
	n2 := b.NewNode()
	if n1 == n2 || n1 < numReserved || n2 < numReserved {
		t.Error("NewNode must return fresh non-reserved nodes")
	}
	b.AddCap(n1, n2, "c")
	tp := b.Build()
	if tp.numNodes != numReserved+2 {
		t.Errorf("numNodes = %d", tp.numNodes)
	}
}

// The 3:2 series-parallel converter the paper validates against (Fig. 7
// left): ratio 2/3, caps hold Vin/3.
func TestPaperValidationTopologies(t *testing.T) {
	an32 := analyze(t, r(SeriesParallel(3, 2)))
	wantClose(t, "3:2 ratio", an32.Ratio, 2.0/3.0, 1e-6)
	an21 := analyze(t, r(SeriesParallel(2, 1)))
	wantClose(t, "2:1 ratio", an21.Ratio, 0.5, 1e-6)
	an31 := analyze(t, r(SeriesParallel(3, 1)))
	wantClose(t, "3:1 ratio", an31.Ratio, 1.0/3.0, 1e-6)
	an41 := analyze(t, r(SeriesParallel(4, 1)))
	wantClose(t, "4:1 ratio", an41.Ratio, 0.25, 1e-6)
}
