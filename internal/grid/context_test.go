package grid

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestPlaceIVRsContextCancelled checks run control on the placement
// heuristic: a cancelled context aborts with ctx.Err(), an uncancelled one
// reproduces the nil-context placement bit-identically.
func TestPlaceIVRsContextCancelled(t *testing.T) {
	m, err := NewMesh(16, 16, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cores := m.QuadCores()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.PlaceIVRsContext(ctx, 4, cores); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled PlaceIVRsContext returned %v, want context.Canceled", err)
	}
	want, err := m.PlaceIVRsContext(nil, 4, cores)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.PlaceIVRsContext(context.Background(), 4, cores)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("context path placed %d taps, nil-context path %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tap %d diverges: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestWorstCaseResistanceContextCancelled checks the per-core fan-out
// honors cancellation and the nil-context path matches a live context.
func TestWorstCaseResistanceContextCancelled(t *testing.T) {
	m, err := NewMesh(12, 12, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cores := m.QuadCores()
	s, err := m.NewSolver([]Point{{6, 6}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.WorstCaseResistanceContext(ctx, cores); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled WorstCaseResistanceContext returned %v, want context.Canceled", err)
	}
	plain, err := s.WorstCaseResistanceContext(nil, cores)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := s.WorstCaseResistanceContext(context.Background(), cores)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain-withCtx) != 0 {
		t.Fatalf("context path %.17g diverges from nil-context path %.17g", withCtx, plain)
	}
}

// TestSolverStatsCounts checks which factorization path NewSolver takes:
// the banded Cholesky for a narrow mesh, the CG fallback for a wide one.
func TestSolverStatsCounts(t *testing.T) {
	// Small mesh: bandwidth 8 <= 64, direct path.
	small, err := NewMesh(8, 8, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s, err := small.NewSolver([]Point{{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if s.chol == nil || s.sm != nil {
		t.Fatal("8x8 mesh did not take the banded Cholesky path")
	}
	// Wide mesh: short dimension 100 > 64 forces the CG fallback.
	big, err := NewMesh(100, 100, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if s, err = big.NewSolver([]Point{{50, 50}}); err != nil {
		t.Fatal(err)
	}
	if s.chol != nil || s.sm == nil {
		t.Fatal("100x100 mesh did not fall back to CG")
	}
}
