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
