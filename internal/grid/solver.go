package grid

import (
	"context"
	"fmt"

	"ivory/internal/numeric"
	"ivory/internal/parallel"
)

// Solver is a per-tap-set solving context. It assembles the grounded mesh
// Laplacian once — reusing the mesh's cached tapless base, since regulator
// taps only touch the diagonal — and factors it a single time, so every
// subsequent load point is a cheap solve instead of a full rebuild.
// WorstCaseResistanceContext and PlaceIVRsContext evaluate many (taps,
// core) pairs against the same tap set; this context is what makes those
// loops O(solve) instead of O(assemble + factor + solve).
//
// A Solver is immutable after construction and safe for concurrent use.
type Solver struct {
	m    *Mesh
	chol *numeric.BandCholesky // in the mesh's bandIdx ordering
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
	base, err := m.bandBase()
	if err != nil {
		return nil, err
	}
	sb := base.Clone()
	gTap := 1 / m.RTile * 1e7 // taps are ~ideal vs the mesh links
	for _, t := range taps {
		i := m.bandIdx(t)
		sb.Add(i, i, gTap)
	}
	// A grounded mesh Laplacian is positive definite, so this fails only
	// for a degenerate RTile (one so small that 1/RTile overflows).
	chol, err := sb.Cholesky()
	if err != nil {
		return nil, fmt.Errorf("grid: %dx%d mesh: %w", m.W, m.H, err)
	}
	return &Solver{m: m, chol: chol}, nil
}

// EffectiveResistance returns the small-signal resistance seen by a load
// at p with all taps regulating: inject 1 A at p, read the potential.
func (s *Solver) EffectiveResistance(p Point) (float64, error) {
	if !s.m.inBounds(p) {
		return 0, fmt.Errorf("grid: load point %v outside the mesh", p)
	}
	i := s.m.bandIdx(p)
	b := make([]float64, s.m.W*s.m.H)
	b[i] = 1
	x, err := s.chol.Solve(b)
	if err != nil {
		return 0, err
	}
	return x[i], nil
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
	if err := parallel.ForContext(ctx, len(cores), workers, func(_ context.Context, i int) (err error) {
		rs[i], err = s.EffectiveResistance(cores[i])
		return err
	}); err != nil {
		return 0, 0, err
	}
	for i := range rs {
		if rs[i] > worst {
			worst = rs[i]
		}
		mean += rs[i]
	}
	return worst, mean / float64(len(cores)), nil
}
