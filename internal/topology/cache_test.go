package topology

import (
	"math"
	"testing"
)

// TestAnalyzeCacheStatsCount checks the exported hit/miss telemetry: a
// first-sight Analyze is a miss, the repeat is a hit.
func TestAnalyzeCacheStatsCount(t *testing.T) {
	top := NewBuilder("cache-stats-probe").Build()
	h0, m0 := CacheStats()
	_, _ = top.Analyze() // empty netlist: errors are memoized too
	h1, m1 := CacheStats()
	if m1 != m0+1 || h1 != h0 {
		t.Fatalf("first sight: hits %d->%d misses %d->%d, want one miss", h0, h1, m0, m1)
	}
	_, _ = top.Analyze()
	h2, m2 := CacheStats()
	if h2 != h1+1 || m2 != m1 {
		t.Fatalf("repeat: hits %d->%d misses %d->%d, want one hit", h1, h2, m1, m2)
	}
}

// TestAnalyzeMemoized checks that repeated Analyze calls return the cached
// (pointer-identical) Analysis, and that the cached result equals a fresh
// uncached solve field for field.
func TestAnalyzeMemoized(t *testing.T) {
	top, err := Ladder(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := top.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := top.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("second Analyze did not return the cached Analysis")
	}
	fresh, err := top.analyze()
	if err != nil {
		t.Fatal(err)
	}
	if fresh == a1 {
		t.Fatal("uncached analyze returned the cached pointer")
	}
	if math.Abs(fresh.Ratio-a1.Ratio) > 0 || math.Abs(fresh.SumAC-a1.SumAC) > 0 || math.Abs(fresh.SumAR-a1.SumAR) > 0 {
		t.Fatalf("cached analysis diverged from a fresh solve: %+v vs %+v", a1, fresh)
	}
	for i := range fresh.CapMultipliers {
		if math.Abs(fresh.CapMultipliers[i]-a1.CapMultipliers[i]) > 0 {
			t.Fatalf("cap multiplier %d diverged", i)
		}
	}
}

// TestAnalyzeCacheKeyDistinguishesNetlists checks that two structurally
// different topologies sharing a name do not collide in the cache.
func TestAnalyzeCacheKeyDistinguishesNetlists(t *testing.T) {
	build := func(stackSwitch bool) *Topology {
		b := NewBuilder("same-name")
		p := b.NewNode()
		n := b.NewNode()
		b.AddCap(p, n, "C1")
		b.AddSwitch(Vin, p, Phi1, "s1")
		b.AddSwitch(n, Vout, Phi1, "s2")
		b.AddSwitch(p, Vout, Phi2, "s3")
		if stackSwitch {
			b.AddSwitch(n, Gnd, Phi2, "s4")
		} else {
			b.AddSwitch(n, Vout, Phi2, "s4")
		}
		return b.Build()
	}
	a, err := build(true).Analyze() // 2:1 divider
	if err != nil {
		t.Fatal(err)
	}
	bAn, err := build(false).Analyze() // cap paralleled with output in phase 2... different circuit
	if err == nil && math.Abs(bAn.Ratio-a.Ratio) <= 1e-12 {
		t.Fatalf("structurally different netlists returned the same cached ratio %g", a.Ratio)
	}
	// Same netlist rebuilt from scratch must hit the cache.
	c, err := build(true).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("identical rebuilt netlist missed the cache")
	}
}

func BenchmarkAnalyzeCached(b *testing.B) {
	top, err := Ladder(7, 3)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := top.Analyze(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := top.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeUncached(b *testing.B) {
	top, err := Ladder(7, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := top.analyze(); err != nil {
			b.Fatal(err)
		}
	}
}
