package grid

import (
	"context"
	"fmt"

	"ivory/internal/numeric"
	"ivory/internal/parallel"
)

// Direct-factorization limits: the banded Cholesky path is used when the
// mesh's short dimension keeps the bandwidth small and the factor fits
// comfortably in memory; larger meshes fall back to conjugate gradients on
// a cloned sparse Laplacian.
const (
	maxDirectBandwidth = 64
	maxDirectEntries   = 1 << 21
)

// Solver is a per-tap-set solving context. It assembles the grounded mesh
// Laplacian once — reusing the mesh's cached tapless base, since regulator
// taps only touch the diagonal — and factors or preconditions it a single
// time, so every subsequent load point is a cheap solve instead of a full
// rebuild-and-restart. WorstCaseResistanceContext and PlaceIVRsContext
// evaluate many (taps, core) pairs against the same tap set; this context
// is what makes those loops O(solve) instead of O(assemble + solve).
//
// A Solver is immutable after construction and safe for concurrent use.
type Solver struct {
	m *Mesh
	// Exactly one of chol (banded direct path) and sm (CG path) is non-nil.
	chol *numeric.BandCholesky
	sm   *numeric.SparseMatrix
	// transposed marks the band ordering: false = row-major y*W+x
	// (bandwidth W), true = column-major x*H+y (bandwidth H).
	transposed bool
}

// NewSolver validates the tap set and builds the solving context.
func (m *Mesh) NewSolver(taps []Point) (*Solver, error) {
	if len(taps) == 0 {
		return nil, fmt.Errorf("grid: at least one regulator tap is required")
	}
	for _, t := range taps {
		if !m.inBounds(t) {
			return nil, fmt.Errorf("grid: tap %v outside the %dx%d mesh", t, m.W, m.H)
		}
	}
	s := &Solver{m: m}
	gTap := 1 / m.RTile * 1e7 // taps are ~ideal vs the mesh links
	bw := m.W
	if m.H < m.W {
		bw = m.H
		s.transposed = true
	}
	if bw <= maxDirectBandwidth && m.W*m.H*(bw+1) <= maxDirectEntries {
		base, err := m.bandBase()
		if err == nil {
			sb := base.Clone()
			for _, t := range taps {
				i := s.bandIdx(t)
				sb.Add(i, i, gTap)
			}
			if chol, err := sb.Cholesky(); err == nil {
				s.chol = chol
				return s, nil
			}
		}
		// An indefinite factorization cannot happen for a grounded mesh
		// Laplacian, but fall through to the iterative path rather than
		// fail: CG carries its own convergence diagnostics.
	}
	sm := m.sparseBase().Clone()
	for _, t := range taps {
		sm.AddDiag(m.idx(t), gTap)
	}
	s.sm = sm
	return s, nil
}

// bandIdx maps a point to its row in the band ordering, which runs along
// the shorter mesh dimension to minimize bandwidth.
func (s *Solver) bandIdx(p Point) int {
	if s.transposed {
		return p.X*s.m.H + p.Y
	}
	return p.Y*s.m.W + p.X
}

// index maps a point to its row in whichever matrix this solver holds.
func (s *Solver) index(p Point) int {
	if s.chol != nil {
		return s.bandIdx(p)
	}
	return s.m.idx(p)
}

// solve returns the node potentials for the given injection vector
// (indexed per s.index).
func (s *Solver) solve(b []float64) ([]float64, error) {
	if s.chol != nil {
		return s.chol.Solve(b)
	}
	x, _, err := s.sm.SolveCG(b, 1e-10, 0)
	return x, err
}

// EffectiveResistance returns the small-signal resistance seen by a load
// at p with all taps regulating: inject 1 A at p, read the potential.
func (s *Solver) EffectiveResistance(p Point) (float64, error) {
	if !s.m.inBounds(p) {
		return 0, fmt.Errorf("grid: load point %v outside the mesh", p)
	}
	n := s.m.W * s.m.H
	b := make([]float64, n)
	b[s.index(p)] = 1
	x, err := s.solve(b)
	if err != nil {
		return 0, err
	}
	return x[s.index(p)], nil
}

// WorstCaseResistanceContext returns the largest effective resistance over
// the given core sites, fanning the independent per-core solves across
// CPUs. A cancelled ctx (nil selects the background context) stops
// dispatching per-core solves and returns ctx.Err() once in-flight solves
// drain.
func (s *Solver) WorstCaseResistanceContext(ctx context.Context, cores []Point) (float64, error) {
	worst, _, err := s.worstMean(ctx, cores, 0)
	return worst, err
}

// worstMean evaluates every core against this tap set and returns the
// (max, mean) effective resistance — the greedy placement's objective.
// Per-core solves are independent, so they run across workers goroutines
// (1 = inline, for callers that already parallelize one level up); the
// reduction over the deterministic per-core results keeps the outcome
// exact regardless of worker count.
func (s *Solver) worstMean(ctx context.Context, cores []Point, workers int) (worst, mean float64, err error) {
	if len(cores) == 0 {
		return 0, 0, fmt.Errorf("grid: need at least one core site")
	}
	rs := make([]float64, len(cores))
	errs := make([]error, len(cores))
	if err := parallel.ForContext(ctx, len(cores), workers, func(i int) {
		rs[i], errs[i] = s.EffectiveResistance(cores[i])
	}); err != nil {
		return 0, 0, err
	}
	for i, e := range errs {
		if e != nil {
			return 0, 0, e
		}
		if rs[i] > worst {
			worst = rs[i]
		}
		mean += rs[i]
	}
	return worst, mean / float64(len(cores)), nil
}
