package dynamic

import (
	"context"
	"math"
	"sync"
	"testing"
)

// cancelAfterN returns context.Canceled from its Err after n polls — a
// deterministic mid-run cancellation source with no timers.
type cancelAfterN struct {
	context.Context
	mu    sync.Mutex
	calls int
	after int
}

func (c *cancelAfterN) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

func testParams() SCParams {
	return SCParams{
		Ratio: 0.5, VIn: 2.0, CEq: 40e-9, REq: 0.04, COut: 25e-9,
		FClk: 50e6, Interleave: 8,
	}
}

func tracesEqual(a, b *Trace) bool {
	if len(a.Times) != len(b.Times) || len(a.V) != len(b.V) ||
		a.SwitchEvents != b.SwitchEvents ||
		math.Float64bits(a.AvgFSw) != math.Float64bits(b.AvgFSw) {
		return false
	}
	for i := range a.V {
		if math.Float64bits(a.Times[i]) != math.Float64bits(b.Times[i]) ||
			math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
			return false
		}
	}
	return true
}

// A recycled Trace must reproduce a fresh run exactly, even when its buffers
// were previously filled by a longer, different simulation.
func TestRunIntoBufferReuse(t *testing.T) {
	sim := &SCSimulator{P: testParams()}
	iLoad := Tones(0.3, []float64{0.1}, []float64{80e6})
	vRef := Constant(0.95)

	fresh, err := sim.Run(iLoad, vRef, 2e-6, 0.5e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the recycled trace with a longer run first.
	tr, err := sim.RunInto(context.Background(), nil, Constant(0.5), vRef, 3e-6, 0.5e-9)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunInto(context.Background(), tr, iLoad, vRef, 2e-6, 0.5e-9)
	if err != nil {
		t.Fatal(err)
	}
	if got != tr {
		t.Fatal("RunInto must return the provided trace")
	}
	if !tracesEqual(fresh, got) {
		t.Fatal("recycled trace diverges from a fresh run")
	}

	freshCyc, err := sim.CycleByCycle(iLoad, 50e6, 2e-6)
	if err != nil {
		t.Fatal(err)
	}
	gotCyc, err := sim.CycleByCycleInto(context.Background(), tr, iLoad, 50e6, 2e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(freshCyc, gotCyc) {
		t.Fatal("CycleByCycleInto over a recycled trace diverges from CycleByCycle")
	}
}

// Cancellation lands inside the step loop: with > runCancelStride steps, a
// context cancelled after its first poll stops the run early.
func TestRunIntoCancellation(t *testing.T) {
	sim := &SCSimulator{P: testParams()}
	iLoad := Constant(0.3)
	vRef := Constant(0.95)
	// 2 µs at 0.2 ns = 10k steps > runCancelStride.
	ctx := &cancelAfterN{Context: context.Background(), after: 1}
	if _, err := sim.RunInto(ctx, nil, iLoad, vRef, 2e-6, 0.2e-9); err != context.Canceled {
		t.Fatalf("RunInto: want context.Canceled, got %v", err)
	}
	if ctx.calls < 2 {
		t.Fatalf("RunInto never polled the context mid-run (%d polls)", ctx.calls)
	}
	// An already-cancelled stdlib context works the same way.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.RunInto(cctx, nil, iLoad, vRef, 2e-6, 0.2e-9); err != context.Canceled {
		t.Fatalf("cancelled context: want context.Canceled, got %v", err)
	}
}

// The in-cycle step loop must be allocation-free once the trace buffers are
// warm: one full re-simulation into a recycled trace performs zero
// allocations.
func TestRunIntoAllocFree(t *testing.T) {
	sim := &SCSimulator{P: testParams()}
	iLoad := Constant(0.3)
	vRef := Constant(0.95)
	tr, err := sim.Run(iLoad, vRef, 1e-6, 0.5e-9)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() {
		if _, err := sim.RunInto(context.Background(), tr, iLoad, vRef, 1e-6, 0.5e-9); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("RunInto allocates %.1f times per run with a warm trace", n)
	}
}
