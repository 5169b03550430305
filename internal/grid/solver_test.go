package grid

import (
	"context"
	"math"
	"testing"
)

// uncachedEffectiveResistance is the pre-Solver reference path: assemble
// the tapped Laplacian from scratch and restart CG from zero.
func uncachedEffectiveResistance(t *testing.T, m *Mesh, taps []Point, p Point) float64 {
	t.Helper()
	sm, err := m.laplacian(taps)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, m.W*m.H)
	b[m.idx(p)] = 1
	x, _, err := sm.SolveCG(b, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	return x[m.idx(p)]
}

// tapSets returns 1-, 2-, and 4-tap sets for a mesh.
func tapSets(m *Mesh) [][]Point {
	c := Point{m.W / 2, m.H / 2}
	q := m.QuadCores()
	return [][]Point{
		{c},
		{q[0], q[3]},
		q,
	}
}

// TestSolverMatchesUncachedPath checks the cached-Laplacian solver's
// per-core and worst-case resistances against the assemble-from-scratch
// CG path within 1e-9, on meshes with 1, 2, and
// 4 taps, covering both the banded direct path (small meshes, incl. a
// non-square one exercising the transposed ordering) and the CG fallback
// (short dimension above the direct-path bandwidth limit).
func TestSolverMatchesUncachedPath(t *testing.T) {
	for _, dim := range []struct {
		w, h int
		r    float64
	}{{8, 8, 0.03}, {12, 10, 0.03}, {10, 14, 0.08}, {24, 24, 0.05}, {70, 70, 0.05}} {
		m, err := NewMesh(dim.w, dim.h, dim.r)
		if err != nil {
			t.Fatal(err)
		}
		cores := m.QuadCores()
		for _, taps := range tapSets(m) {
			s, err := m.NewSolver(taps)
			if err != nil {
				t.Fatalf("%dx%d taps %v: %v", dim.w, dim.h, taps, err)
			}
			for _, c := range cores {
				got, err := s.EffectiveResistance(c)
				if err != nil {
					t.Fatal(err)
				}
				want := uncachedEffectiveResistance(t, m, taps, c)
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Errorf("%dx%d taps %v core %v: solver R=%.15g, uncached %.15g",
						dim.w, dim.h, taps, c, got, want)
				}
			}
			// The worst case is the largest of the per-core resistances.
			wr, err := s.WorstCaseResistanceContext(context.Background(), cores)
			if err != nil {
				t.Fatal(err)
			}
			want := 0.0
			for _, c := range cores {
				want = math.Max(want, uncachedEffectiveResistance(t, m, taps, c))
			}
			if math.Abs(wr-want) > 1e-9*(1+want) {
				t.Errorf("%dx%d taps %v: worst case %.15g, uncached %.15g", dim.w, dim.h, taps, wr, want)
			}
		}
	}
}

// TestPlaceIVRsUnchangedByCachedSolver pins the greedy placement against
// the taps the pre-Solver implementation returned (captured before the
// change). The n=8 quad-core case had two exactly symmetric taps whose
// order the old CG rounding noise broke arbitrarily, so that case checks
// set equality plus the (identical) worst-case metric.
func TestPlaceIVRsUnchangedByCachedSolver(t *testing.T) {
	check := func(w, h int, rTile float64, n int, want []Point, asSet bool) {
		t.Helper()
		m, err := NewMesh(w, h, rTile)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.PlaceIVRsContext(context.Background(), n, m.QuadCores())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%dx%d n=%d: got %v, want %v", w, h, n, got, want)
		}
		for i := range want {
			if asSet {
				if !containsPoint(got, want[i]) {
					t.Fatalf("%dx%d n=%d: got %v, want the set %v", w, h, n, got, want)
				}
			} else if got[i] != want[i] {
				t.Fatalf("%dx%d n=%d: got %v, want %v", w, h, n, got, want)
			}
		}
	}
	// 24x24 case-study mesh (the gridscale experiment's configuration).
	check(24, 24, 0.05, 1, []Point{{13, 13}}, false)
	check(24, 24, 0.05, 2, []Point{{13, 13}, {10, 10}}, false)
	check(24, 24, 0.05, 4, []Point{{6, 6}, {18, 6}, {6, 18}, {18, 18}}, false)
	check(24, 24, 0.05, 8, []Point{{6, 6}, {18, 6}, {6, 18}, {18, 18}, {19, 19}, {7, 19}, {19, 7}, {7, 7}}, true)
	// Smaller and non-square meshes.
	check(8, 8, 0.03, 1, []Point{{4, 4}}, false)
	check(12, 10, 0.03, 2, []Point{{6, 4}, {7, 7}}, false)
	check(16, 16, 0.03, 4, []Point{{4, 4}, {12, 4}, {4, 12}, {12, 12}}, false)
}

// TestSolverValidation covers the solver's input contracts.
func TestSolverValidation(t *testing.T) {
	m, err := NewMesh(8, 8, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewSolver(nil); err == nil {
		t.Fatal("expected an error for an empty tap set")
	}
	if _, err := m.NewSolver([]Point{{99, 0}}); err == nil {
		t.Fatal("expected an error for an out-of-bounds tap")
	}
	s, err := m.NewSolver([]Point{{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EffectiveResistance(Point{-1, 0}); err == nil {
		t.Fatal("expected an error for an out-of-bounds load point")
	}
	if _, err := s.WorstCaseResistanceContext(context.Background(), nil); err == nil {
		t.Fatal("expected an error for an empty core list")
	}
}
