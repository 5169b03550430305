package pds

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"ivory/internal/workload"
)

// cancelAfterCtx is a deterministic cancellation source: Err returns nil for
// the first `after` polls and context.Canceled from then on. It lets tests
// cancel mid-simulation at an exact poll count, with no timers or sleeps.
type cancelAfterCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
	after int
}

func (c *cancelAfterCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

func sameFloats(a, b []float64) bool {
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

// Regression for the seed-derivation collision: the previous scheme offset
// the stream seed by len(bench.Name), so same-length names sharing all other
// parameters produced identical per-core traces.
func TestBenchStreamSeedSameLengthNames(t *testing.T) {
	if benchStreamSeed(12345, "GEMM", 0) == benchStreamSeed(12345, "Sort", 0) {
		t.Fatal("same-length benchmark names must derive different stream seeds")
	}
	s := testSystem(t)
	mk := func(name string) workload.Benchmark {
		return workload.Benchmark{
			Name: name, Base: 0.6, PhaseAmp: 0.1, PhasePeriod: 5e-6,
			BurstAmp: 0.2, BurstFreqs: []float64{100e6}, StepProb: 0.0, NoiseSigma: 0.02,
		}
	}
	a := s.coreCurrents(mk("AAAA"), 1e-9, 512, s.VNominal)
	b := s.coreCurrents(mk("BBBB"), 1e-9, 512, s.VNominal)
	for c := range a {
		if sameFloats(a[c], b[c]) {
			t.Fatalf("core %d: same-length benchmark names produced identical traces", c)
		}
	}
}

func TestTraceCacheEquivalence(t *testing.T) {
	s := testSystem(t)
	bench, _ := workload.Get("CFD")
	direct := s.coreCurrents(bench, 1e-9, 1024, s.VNominal)
	first := s.coreCurrentsCached(bench, 1e-9, 1024, s.VNominal)
	h0, _ := TraceCacheStats()
	second := s.coreCurrentsCached(bench, 1e-9, 1024, s.VNominal)
	h1, _ := TraceCacheStats()
	if h1 != h0+1 {
		t.Errorf("second identical lookup should hit the cache: hits %d -> %d", h0, h1)
	}
	for c := range direct {
		if !sameFloats(direct[c], first[c]) || !sameFloats(direct[c], second[c]) {
			t.Fatalf("core %d: cached traces differ from the direct computation", c)
		}
	}
	// Different supply voltage is a different key, not a stale hit.
	other := s.coreCurrentsCached(bench, 1e-9, 1024, s.VNominal*0.95)
	if sameFloats(other[0], direct[0]) {
		t.Error("different voltage must not reuse the cached traces")
	}
}

// Pins the k=0 contract documented on gridDropInto: the first sample carries
// the resistive drop only, because the transient models enter the trace in
// steady state (di/dt = 0 across the first boundary). An inductive turn-on
// term would shift every noise statistic.
func TestGridDropSteadyStateStart(t *testing.T) {
	vReg := []float64{1.0, 1.0, 1.0, 1.0}
	iCore := []float64{10, 10, 14, 12}
	dt, r, l := 1e-9, 2e-3, 1e-9 // huge L so a spurious k=0 term would be obvious
	out := gridDrop(vReg, iCore, dt, r, l)
	want0 := vReg[0] - iCore[0]*r
	if math.Float64bits(out[0]) != math.Float64bits(want0) {
		t.Errorf("k=0 sample must be resistive-only: got %v, want %v", out[0], want0)
	}
	want2 := vReg[2] - (iCore[2]*r + l*(iCore[2]-iCore[1])/dt)
	if math.Float64bits(out[2]) != math.Float64bits(want2) {
		t.Errorf("k=2 sample must carry L·di/dt: got %v, want %v", out[2], want2)
	}
	// The Into variant reuses dst and matches exactly.
	dst := make([]float64, 0, len(vReg))
	out2 := gridDropInto(dst, vReg, iCore, dt, r, l)
	if !sameFloats(out, out2) {
		t.Error("gridDropInto differs from gridDrop")
	}
}

func TestSumTracesInto(t *testing.T) {
	traces := [][]float64{{1, 2, 3}, {10, 20, 30}, {0.5, 0.5, 0.5}}
	want := sumTraces(traces)
	got := sumTracesInto(make([]float64, 0, 3), traces)
	if !sameFloats(want, got) {
		t.Errorf("sumTracesInto mismatch: %v vs %v", got, want)
	}
	if sumTracesInto(nil, nil) != nil {
		t.Error("empty trace set must return nil")
	}
}

// The steady-state helpers must not allocate when handed capacity.
func TestHelpersAllocFree(t *testing.T) {
	traces := [][]float64{make([]float64, 4096), make([]float64, 4096), make([]float64, 4096)}
	for i := range traces[0] {
		traces[0][i] = float64(i)
		traces[1][i] = 1.0
		traces[2][i] = 0.25
	}
	dst := make([]float64, 4096)
	if n := testing.AllocsPerRun(20, func() {
		dst = sumTracesInto(dst, traces)
	}); n != 0 {
		t.Errorf("sumTracesInto allocates %.1f times per run with a warm buffer", n)
	}
	vReg, iCore := traces[1], traces[0]
	drop := make([]float64, 4096)
	if n := testing.AllocsPerRun(20, func() {
		drop = gridDropInto(drop, vReg, iCore, 1e-9, 2e-3, 25e-12)
	}); n != 0 {
		t.Errorf("gridDropInto allocates %.1f times per run with a warm buffer", n)
	}
}

// Simulations through the scratch pool must reproduce a run on fresh
// scratch bit for bit however dirty the recycled buffers are, and results
// must not alias the pooled scratch.
func TestSimulateContextScratchEquivalence(t *testing.T) {
	s := testSystem(t)
	d := testDesign(t)
	cfd, _ := workload.Get("CFD")
	kmn, err := workload.Get("KMN")
	if err != nil {
		t.Fatal(err)
	}
	T, dt := 10e-6, 1e-9
	ctx := context.Background()
	opt := SimOptions{KeepTrace: true}
	same := func(a, b *NoiseResult) bool {
		return sameFloats(a.Times, b.Times) && sameFloats(a.VCore, b.VCore) && reflect.DeepEqual(a.VStats, b.VStats)
	}
	deliveries := []Delivery{{}, {IVRs: 4, SC: d}, {LDO: goldenLDO(t, s, 0.15), HeadroomV: 0.15}}
	fresh := make([]*NoiseResult, len(deliveries))
	for i, dl := range deliveries {
		if fresh[i], err = s.simulate(ctx, new(scratch), dl, cfd, T, dt, opt); err != nil {
			t.Fatal(err)
		}
	}
	var first *NoiseResult
	var before []float64
	for rep := 0; rep < 3; rep++ {
		for i, dl := range deliveries {
			got, err := s.Simulate(ctx, dl, cfd, T, dt, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !same(fresh[i], got) {
				t.Fatalf("%s rep %d: pooled run diverges from a fresh one", dl.Name(), rep)
			}
			if first == nil {
				first, before = got, append([]float64(nil), got.VCore...)
			}
		}
		// Dirty the pooled buffers with a different benchmark and a longer
		// span before the next repetition.
		if _, err := s.Simulate(ctx, Delivery{IVRs: 2, SC: d}, kmn, 2*T, dt, opt); err != nil {
			t.Fatal(err)
		}
	}
	if !sameFloats(before, first.VCore) {
		t.Fatal("result trace aliases scratch: a later simulation overwrote it")
	}
}

// Without KeepTrace, the result carries statistics but no waveform.
func TestSimulateDropsTraceWhenNotKept(t *testing.T) {
	s := testSystem(t)
	bench, _ := workload.Get("CFD")
	res, err := s.Simulate(context.Background(), Delivery{}, bench, 10e-6, 1e-9, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Times != nil || res.VCore != nil {
		t.Error("KeepTrace=false must drop the waveform")
	}
	if res.VStats.N == 0 || res.NoiseVpp <= 0 {
		t.Error("statistics must survive without the trace")
	}
	st := res.Stats()
	if st.N != res.VStats.N {
		t.Error("Stats() must serve the precomputed summary")
	}
	// And the summary must equal the kept-trace run's.
	kept, err := s.Simulate(context.Background(), Delivery{}, bench, 10e-6, 1e-9, SimOptions{KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.VStats, kept.VStats) {
		t.Errorf("summary differs with/without trace retention: %+v vs %+v", res.VStats, kept.VStats)
	}
}

// Cancellation hits inside the transient integration loop, not only between
// cells: a context cancelled after a few polls stops a 20k-step simulation
// long before completion.
func TestSimulateCancellationMidCell(t *testing.T) {
	s := testSystem(t)
	d := testDesign(t)
	bench, _ := workload.Get("CFD")
	ctx := &cancelAfterCtx{Context: context.Background(), after: 2}
	if _, err := s.Simulate(ctx, Delivery{}, bench, 20e-6, 1e-9, SimOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("off-chip simulation must stop with context.Canceled, got %v", err)
	}
	if ctx.calls < 2 {
		t.Fatalf("cancellation was never polled mid-run (%d polls)", ctx.calls)
	}
	ctx = &cancelAfterCtx{Context: context.Background(), after: 2}
	if _, err := s.Simulate(ctx, Delivery{IVRs: 4, SC: d}, bench, 20e-6, 1e-9, SimOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("IVR simulation must stop with context.Canceled, got %v", err)
	}
}

// TestSimulateLDOCancellationMidCell: the digital-LDO branch polls its
// context inside the integration loop, so a cell cancelled after two
// polls stops at the third instead of running to the end: a check only
// before and after the run would see two clean polls and succeed.
func TestSimulateLDOCancellationMidCell(t *testing.T) {
	s := testSystem(t)
	bench, _ := workload.Get("CFD")
	ctx := &cancelAfterCtx{Context: context.Background(), after: 2}
	if _, err := s.Simulate(ctx, Delivery{LDO: goldenLDO(t, s, 0.15), HeadroomV: 0.15}, bench, 200e-6, 1e-9, SimOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("LDO simulation must stop with context.Canceled, got %v", err)
	}
	if ctx.calls != 3 {
		t.Fatalf("LDO simulation polled the context %d times, want 3 (two passes, then the cancellation)", ctx.calls)
	}
}
