package grid

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// refLaplacian is the independent reference the banded solver is checked
// against: the tapped mesh Laplacian in row-major order, assembled from
// scratch as adjacency lists with the tap nodes tied to the reference
// through a very large conductance (ideal regulators), and solved by
// Jacobi-preconditioned conjugate gradients.
type refLaplacian struct {
	g    float64 // link conductance
	diag []float64
	nbrs [][]int
}

func (m *Mesh) idx(p Point) int { return p.Y*m.W + p.X }

// laplacian assembles the reference for a tap set NewSolver has accepted.
func (m *Mesh) laplacian(taps []Point) *refLaplacian {
	n := m.W * m.H
	l := &refLaplacian{g: 1 / m.RTile, diag: make([]float64, n), nbrs: make([][]int, n)}
	link := func(i, j int) {
		l.diag[i] += l.g
		l.diag[j] += l.g
		l.nbrs[i] = append(l.nbrs[i], j)
		l.nbrs[j] = append(l.nbrs[j], i)
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			i := m.idx(Point{x, y})
			if x+1 < m.W {
				link(i, m.idx(Point{x + 1, y}))
			}
			if y+1 < m.H {
				link(i, m.idx(Point{x, y + 1}))
			}
		}
	}
	for _, t := range taps {
		l.diag[m.idx(t)] += l.g * 1e7
	}
	return l
}

// mulVec computes dst = L*x.
func (l *refLaplacian) mulVec(x, dst []float64) {
	for i := range dst {
		s := l.diag[i] * x[i]
		for _, j := range l.nbrs[i] {
			s -= l.g * x[j]
		}
		dst[i] = s
	}
}

// solveCG solves L*x = b to a residual of tol relative to ||b||.
func (l *refLaplacian) solveCG(b []float64, tol float64) ([]float64, error) {
	n := len(b)
	dot := func(u, v []float64) float64 {
		s := 0.0
		for i := range u {
			s += u[i] * v[i]
		}
		return s
	}
	r := append([]float64(nil), b...) // residual b - L*x, with x = 0
	x, z, p, lp := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	precond := func() { // z = D^-1 r
		for i := range z {
			z[i] = r[i] / l.diag[i]
		}
	}
	precond()
	copy(p, z)
	rz, bound := dot(r, z), tol*tol*dot(b, b)
	for it := 0; it < 4*n; it++ {
		l.mulVec(p, lp)
		alpha := rz / dot(p, lp)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * lp[i]
		}
		if dot(r, r) < bound {
			return x, nil
		}
		precond()
		rzNew := dot(r, z)
		for i := range p {
			p[i] = z[i] + rzNew/rz*p[i]
		}
		rz = rzNew
	}
	return nil, fmt.Errorf("reference CG did not converge in %d iterations", 4*n)
}

// referenceResistances solves the reference once per core: the effective
// resistance each core sees against taps.
func referenceResistances(t *testing.T, m *Mesh, taps, cores []Point) []float64 {
	t.Helper()
	l := m.laplacian(taps)
	rs := make([]float64, len(cores))
	for k, c := range cores {
		b := make([]float64, m.W*m.H)
		b[m.idx(c)] = 1
		x, err := l.solveCG(b, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		rs[k] = x[m.idx(c)]
	}
	return rs
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

// TestSolverMatchesUncachedPath checks the cached-Laplacian banded solver's
// per-core and worst-case resistances against the assemble-from-scratch
// CG reference within 1e-9, on meshes with 1, 2, and 4 taps: square and
// non-square (the transposed band ordering) meshes, and a 70x70 mesh of
// bandwidth 70.
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
			want := referenceResistances(t, m, taps, cores)
			worst := 0.0
			for k, c := range cores {
				got, err := s.EffectiveResistance(c)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want[k]) > 1e-9*(1+math.Abs(want[k])) {
					t.Errorf("%dx%d taps %v core %v: solver R=%.15g, reference %.15g",
						dim.w, dim.h, taps, c, got, want[k])
				}
				worst = math.Max(worst, want[k])
			}
			// The worst case is the largest of the per-core resistances.
			wr, err := s.WorstCaseResistanceContext(context.Background(), cores)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(wr-worst) > 1e-9*(1+worst) {
				t.Errorf("%dx%d taps %v: worst case %.15g, reference %.15g", dim.w, dim.h, taps, wr, worst)
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
	// A failed factorization is an error, not a fallback: 1/RTile
	// overflows to +Inf and the Cholesky pivots turn NaN.
	tiny, err := NewMesh(8, 8, 1e-320)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tiny.NewSolver([]Point{{4, 4}}); err == nil {
		t.Fatal("expected an error for a mesh whose Laplacian cannot be factored")
	}
}
