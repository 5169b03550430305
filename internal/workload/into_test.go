package workload

import (
	"math"
	"testing"
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The hoisted trace conversion must match the per-sample model exactly: the
// loop factors out the voltage-only terms, but each sample still evaluates
// the identical expression Current would.
func TestCurrentTraceIntoMatchesCurrent(t *testing.T) {
	for _, tracks := range []bool{false, true} {
		m := LoadModel{PNominal: 5, VNominal: 0.85, LeakFraction: 0.25, FrequencyTracksV: tracks}
		b, err := Get("CFD")
		if err != nil {
			t.Fatal(err)
		}
		power := b.PowerTraceInto(nil, 5, 1e-9, 2048, 42)
		// Include a below-leakage sample so the activity clamp is exercised.
		power[17] = 0.1
		for _, v := range []float64{0.80, 0.85, 0.92} {
			got := m.CurrentTrace(power, v)
			pdynNom := m.PNominal * (1 - m.LeakFraction)
			for i, p := range power {
				activity := (p - m.PNominal*m.LeakFraction) / pdynNom
				if activity < 0 {
					activity = 0
				}
				want := m.Current(activity, v)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("tracksV=%v v=%.2f sample %d: trace %v vs per-sample %v", tracks, v, i, got[i], want)
				}
			}
		}
		// Non-positive voltage zeroes the trace, matching Current.
		for _, z := range m.CurrentTrace(power, 0) {
			if z != 0 {
				t.Fatal("v<=0 must produce a zero trace")
			}
		}
	}
}

func TestPowerTraceIntoReuse(t *testing.T) {
	b, err := Get("LUD")
	if err != nil {
		t.Fatal(err)
	}
	want := b.PowerTraceInto(nil, 5, 1e-9, 4096, 99)
	buf := make([]float64, 0, 4096)
	got := b.PowerTraceInto(buf, 5, 1e-9, 4096, 99)
	if !bitsEqual(want, got) {
		t.Fatal("PowerTraceInto with a donated buffer diverges from a fresh buffer")
	}
	// A second call with different parameters overwrites the same backing
	// array; the PRNG stream restarts from the seed, so equal inputs give
	// equal outputs again.
	again := b.PowerTraceInto(got, 5, 1e-9, 4096, 99)
	if !bitsEqual(want, again) {
		t.Fatal("PowerTraceInto is not reproducible over a reused buffer")
	}
}

// The trace converters are steady-state inner loops: with warm buffers they
// must not allocate at all.
func TestTraceIntoAllocFree(t *testing.T) {
	m := LoadModel{PNominal: 5, VNominal: 0.85, LeakFraction: 0.25}
	b, err := Get("CFD")
	if err != nil {
		t.Fatal(err)
	}
	power := make([]float64, 4096)
	out := make([]float64, 4096)
	// PowerTraceInto's only remaining allocations are the deterministic PRNG
	// (rand.New + source) it must construct per trace; the sample buffer and
	// tone phases are reused/stack-allocated.
	if n := testing.AllocsPerRun(10, func() {
		power = b.PowerTraceInto(power, 5, 1e-9, 4096, 7)
	}); n > 2 {
		t.Errorf("PowerTraceInto allocates %.1f times per run with a warm buffer (want <= 2: the PRNG)", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		out = m.CurrentTraceInto(out, power, 0.85)
	}); n != 0 {
		t.Errorf("CurrentTraceInto allocates %.1f times per run with a warm buffer", n)
	}
}
