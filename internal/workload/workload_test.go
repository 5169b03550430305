package workload

import (
	"math"
	"testing"

	"ivory/internal/numeric"
)

func TestNamesAndGet(t *testing.T) {
	names := Names()
	if len(names) != 7 {
		t.Fatalf("expected the paper's 7 benchmarks, got %d", len(names))
	}
	for _, n := range names {
		b, err := Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name != n {
			t.Errorf("benchmark %s name mismatch", n)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown benchmark must fail")
	}
}

func TestPowerTraceDeterministic(t *testing.T) {
	b, _ := Get("CFD")
	a := b.PowerTraceInto(nil, 5, 1e-8, 2000, 42)
	c := b.PowerTraceInto(nil, 5, 1e-8, 2000, 42)
	for i := range a {
		if !numeric.ApproxEqual(a[i], c[i], 0) {
			t.Fatal("same seed must reproduce the trace")
		}
	}
	d := b.PowerTraceInto(nil, 5, 1e-8, 2000, 43)
	same := true
	for i := range a {
		if !numeric.ApproxEqual(a[i], d[i], 0) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestPowerTraceBounds(t *testing.T) {
	for _, name := range Names() {
		b, _ := Get(name)
		tr := b.PowerTraceInto(nil, 5, 1e-8, 50000, 1)
		mn, mx := numeric.MinMax(tr)
		if mn < 0.05*5-1e-9 || mx > 1.25*5+1e-9 {
			t.Errorf("%s: trace outside clamp: [%v, %v]", name, mn, mx)
		}
		mean := numeric.Mean(tr)
		if mean < 0.2*5 || mean > 1.0*5 {
			t.Errorf("%s: mean power %v implausible", name, mean)
		}
	}
}

func TestPowerTraceMeansDiffer(t *testing.T) {
	cfd, _ := Get("CFD")
	bfs, _ := Get("BFS2")
	mc := numeric.Mean(cfd.PowerTraceInto(nil, 5, 1e-8, 50000, 7))
	mb := numeric.Mean(bfs.PowerTraceInto(nil, 5, 1e-8, 50000, 7))
	// CFD is the heavier workload.
	if mc <= mb {
		t.Errorf("CFD mean %v should exceed BFS2 %v", mc, mb)
	}
}

func TestPowerTraceSpectrumHasBurstContent(t *testing.T) {
	b, _ := Get("CFD")
	dt := 1e-9
	tr := b.PowerTraceInto(nil, 5, dt, 1<<16, 3)
	freq, amp, _, err := numeric.AmplitudeSpectra(tr, nil, dt)
	if err != nil {
		t.Fatal(err)
	}
	// Find amplitude near the 20 MHz burst tone and compare to a quiet
	// band (e.g. 45 MHz, off the tone grid).
	ampNear := func(f0 float64) float64 {
		best := 0.0
		for i, f := range freq {
			if math.Abs(f-f0) < 0.4e6 && amp[i] > best {
				best = amp[i]
			}
		}
		return best
	}
	tone := ampNear(20e6)
	quiet := ampNear(45e6)
	if tone < 2*quiet {
		t.Errorf("burst tone not visible: %v vs quiet %v", tone, quiet)
	}
}

func TestPowerTraceEdgeCases(t *testing.T) {
	b, _ := Get("LUD")
	if b.PowerTraceInto(nil, 0, 1e-9, 10, 1) != nil {
		t.Error("zero TDP must return nil")
	}
	if b.PowerTraceInto(nil, 5, 0, 10, 1) != nil {
		t.Error("zero dt must return nil")
	}
	if b.PowerTraceInto(nil, 5, 1e-9, 0, 1) != nil {
		t.Error("zero samples must return nil")
	}
}

func TestLoadModelValidate(t *testing.T) {
	ok := LoadModel{PNominal: 5, VNominal: 0.85, LeakFraction: 0.25}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []LoadModel{
		{PNominal: 0, VNominal: 1},
		{PNominal: 5, VNominal: 0},
		{PNominal: 5, VNominal: 1, LeakFraction: 1.5},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestLoadModelCurrent(t *testing.T) {
	m := LoadModel{PNominal: 5, VNominal: 0.85, LeakFraction: 0.2}
	// At nominal voltage and full activity, P = I*V = PNominal.
	i := m.Current(1, 0.85)
	if math.Abs(i*0.85-5)/5 > 1e-9 {
		t.Errorf("nominal power %v, want 5", i*0.85)
	}
	// Current rises with voltage (dynamic CVf + leakage both grow).
	if m.Current(1, 0.95) <= m.Current(1, 0.85) {
		t.Error("current should rise with V")
	}
	// Zero activity leaves only leakage.
	leakOnly := m.Current(0, 0.85)
	want := 5 * 0.2 / 0.85
	if math.Abs(leakOnly-want)/want > 1e-9 {
		t.Errorf("leakage-only current %v, want %v", leakOnly, want)
	}
	// DVFS mode: cubic dependence beats quadratic below nominal.
	dvfs := m
	dvfs.FrequencyTracksV = true
	if dvfs.Current(1, 0.6) >= m.Current(1, 0.6) {
		t.Error("frequency-tracking current should be lower at reduced V")
	}
	if m.Current(1, 0) != 0 {
		t.Error("zero voltage edge case")
	}
}

func TestCurrentTraceConversion(t *testing.T) {
	m := LoadModel{PNominal: 5, VNominal: 0.85, LeakFraction: 0.2}
	b, _ := Get("HOTSP")
	p := b.PowerTraceInto(nil, 5, 1e-8, 5000, 9)
	i := m.CurrentTrace(p, 0.85)
	if len(i) != len(p) {
		t.Fatal("length mismatch")
	}
	// At the reference voltage, I ~= P/V sample by sample.
	for k := range p {
		want := p[k] / 0.85
		if math.Abs(i[k]-want)/want > 0.02 {
			t.Fatalf("sample %d: I=%v, want ~%v", k, i[k], want)
		}
	}
}
