// Package grid models the distributed on-chip power grid of the paper's
// Fig. 1 as a 2-D resistive mesh. It turns floorplan geometry — where the
// IVR outputs tap the grid and where the cores draw current — into the
// effective grid resistances the PDS analysis consumes, replacing the
// hand-set "grid impedance divided by the IVR count" approximation with a
// computed one.
//
// The mesh is a W x H array of tiles connected by the metal stack's sheet
// resistance. Regulator taps are ideal voltage sources (grounded nodes in
// the small-signal picture); cores inject their load currents. A Laplacian
// solve (sparse conjugate gradients) yields node potentials, from which
// per-core effective resistances and IR drops follow.
package grid

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"ivory/internal/numeric"
	"ivory/internal/parallel"
)

// Point is a tile coordinate on the mesh.
type Point struct {
	X, Y int
}

// Mesh is a rectangular power-grid mesh.
type Mesh struct {
	// W and H are the tile counts in each dimension.
	W, H int
	// RTile is the resistance of one tile-to-tile link (ohm) — the sheet
	// resistance times the squares per tile pitch.
	RTile float64

	// Lazily assembled tapless Laplacians, shared by every Solver built on
	// this mesh (taps only add diagonal entries, so a clone-plus-diagonal
	// reproduces the from-scratch assembly exactly).
	mu        sync.Mutex
	bandLap   *numeric.SymBand
	sparseLap *numeric.SparseMatrix
}

// NewMesh validates and builds a mesh.
func NewMesh(w, h int, rTile float64) (*Mesh, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("grid: mesh needs at least 2x2 tiles, got %dx%d", w, h)
	}
	if w*h > 1<<16 {
		return nil, fmt.Errorf("grid: mesh %dx%d too large", w, h)
	}
	if rTile <= 0 {
		return nil, fmt.Errorf("grid: tile resistance must be positive")
	}
	return &Mesh{W: w, H: h, RTile: rTile}, nil
}

func (m *Mesh) idx(p Point) int { return p.Y*m.W + p.X }

func (m *Mesh) inBounds(p Point) bool {
	return p.X >= 0 && p.X < m.W && p.Y >= 0 && p.Y < m.H
}

// laplacian builds the mesh conductance matrix with the tap nodes tied to
// the reference through a very large conductance (ideal regulators).
func (m *Mesh) laplacian(taps []Point) (*numeric.SparseMatrix, error) {
	if len(taps) == 0 {
		return nil, fmt.Errorf("grid: at least one regulator tap is required")
	}
	n := m.W * m.H
	sm := numeric.NewSparseMatrix(n)
	g := 1 / m.RTile
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			i := m.idx(Point{x, y})
			if x+1 < m.W {
				j := m.idx(Point{x + 1, y})
				sm.AddDiag(i, g)
				sm.AddDiag(j, g)
				sm.AddSym(i, j, -g)
			}
			if y+1 < m.H {
				j := m.idx(Point{x, y + 1})
				sm.AddDiag(i, g)
				sm.AddDiag(j, g)
				sm.AddSym(i, j, -g)
			}
		}
	}
	gTap := g * 1e7 // taps are ~ideal vs the mesh links
	for _, t := range taps {
		if !m.inBounds(t) {
			return nil, fmt.Errorf("grid: tap %v outside the %dx%d mesh", t, m.W, m.H)
		}
		sm.AddDiag(m.idx(t), gTap)
	}
	return sm, nil
}

// eachLink visits every tile-to-tile link once, as the indices idx gives
// its two end tiles, in row-major order (each tile's right link before its
// down link), so every Laplacian built from it sums its entries in one
// order.
func (m *Mesh) eachLink(idx func(Point) int, visit func(i, j int)) {
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			i := idx(Point{x, y})
			if x+1 < m.W {
				visit(i, idx(Point{x + 1, y}))
			}
			if y+1 < m.H {
				visit(i, idx(Point{x, y + 1}))
			}
		}
	}
}

// bandIdx maps a point to its row in the band ordering, which runs along
// the shorter mesh dimension to minimize bandwidth: row-major y*W+x
// (bandwidth W), or column-major x*H+y (bandwidth H) when H < W.
func (m *Mesh) bandIdx(p Point) int {
	if m.H < m.W {
		return p.X*m.H + p.Y
	}
	return p.Y*m.W + p.X
}

// sparseBase returns the cached tapless Laplacian in mesh row-major order,
// assembling it on first use.
func (m *Mesh) sparseBase() *numeric.SparseMatrix {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sparseLap == nil {
		sm := numeric.NewSparseMatrix(m.W * m.H)
		g := 1 / m.RTile
		m.eachLink(m.idx, func(i, j int) {
			sm.AddDiag(i, g)
			sm.AddDiag(j, g)
			sm.AddSym(i, j, -g)
		})
		m.sparseLap = sm
	}
	return m.sparseLap
}

// bandBase returns the cached tapless Laplacian in band form, in the
// bandIdx ordering, whose bandwidth is the shorter mesh dimension.
func (m *Mesh) bandBase() (*numeric.SymBand, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bandLap == nil {
		sb, err := numeric.NewSymBand(m.W*m.H, min(m.W, m.H))
		if err != nil {
			return nil, err
		}
		g := 1 / m.RTile
		m.eachLink(m.bandIdx, func(i, j int) {
			sb.Add(i, i, g)
			sb.Add(j, j, g)
			sb.Add(i, j, -g)
		})
		m.bandLap = sb
	}
	return m.bandLap, nil
}

// PlaceIVRsContext picks n tap sites minimizing the worst-case effective
// resistance over the core sites, by greedy farthest-point-style selection
// over a candidate lattice followed by exact evaluation. It is a floorplan
// heuristic, not an optimizer — good placements, deterministically: the
// placement is bit-identical for every worker schedule, because candidates
// are reduced in scan order after the parallel scoring round. A cancelled
// ctx (nil selects the background context) stops the candidate scoring
// fan-out between solves and returns ctx.Err().
func (m *Mesh) PlaceIVRsContext(ctx context.Context, n int, cores []Point) ([]Point, error) {
	if n < 1 {
		return nil, fmt.Errorf("grid: need at least one IVR")
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("grid: need at least one core site")
	}
	// Candidate lattice: a coarse sub-grid plus the core sites themselves.
	var candidates []Point
	stepX := m.W / 8
	if stepX < 1 {
		stepX = 1
	}
	stepY := m.H / 8
	if stepY < 1 {
		stepY = 1
	}
	for y := stepY / 2; y < m.H; y += stepY {
		for x := stepX / 2; x < m.W; x += stepX {
			candidates = append(candidates, Point{x, y})
		}
	}
	candidates = append(candidates, cores...)

	// Greedy: start from the centroid-closest candidate, then repeatedly
	// add the candidate that most reduces the worst-case resistance.
	var taps []Point
	cx, cy := 0, 0
	for _, c := range cores {
		cx += c.X
		cy += c.Y
	}
	centroid := Point{cx / len(cores), cy / len(cores)}
	sort.Slice(candidates, func(i, j int) bool {
		return dist2(candidates[i], centroid) < dist2(candidates[j], centroid)
	})
	if n >= len(cores) {
		// With enough regulators for point-of-load delivery, start from
		// the core sites themselves and let the greedy spend the surplus.
		taps = append(taps, cores...)
		taps = taps[:min(n, len(taps))]
	} else {
		taps = append(taps, candidates[0])
	}
	// Each round adds the candidate minimizing (worst, mean) core
	// resistance. The mean tie-break matters on symmetric floorplans:
	// when two far cores tie for the worst case, helping either one
	// cannot lower the max, and a pure worst-case greedy would stall.
	// Each tap set gets one Solver (one Laplacian assembly + factorization
	// shared by all core sites); the per-core solves run inline because the
	// candidate scoring loop below is already parallel.
	evaluate := func(ctx context.Context, ts []Point) (worst, mean float64, err error) {
		s, err := m.NewSolver(ts)
		if err != nil {
			return 0, 0, err
		}
		return s.worstMean(ctx, cores, 1)
	}
	for len(taps) < n {
		// Score every candidate concurrently, then reduce in index order so
		// the chosen tap is identical to the serial scan's.
		type score struct {
			w, mn float64
			ok    bool
		}
		scores := make([]score, len(candidates))
		if err := parallel.ForContext(ctx, len(candidates), 0, func(ctx context.Context, i int) error {
			cand := candidates[i]
			if containsPoint(taps, cand) {
				return nil
			}
			trial := make([]Point, len(taps)+1)
			copy(trial, taps)
			trial[len(taps)] = cand
			w, mn, err := evaluate(ctx, trial)
			scores[i] = score{w: w, mn: mn, ok: true}
			return err
		}); err != nil {
			return nil, err
		}
		bestW, bestM := math.Inf(1), math.Inf(1)
		var best Point
		for i, sc := range scores {
			if !sc.ok {
				continue
			}
			if sc.w < bestW-1e-12 || (math.Abs(sc.w-bestW) <= 1e-12 && sc.mn < bestM) {
				bestW, bestM = sc.w, sc.mn
				best = candidates[i]
			}
		}
		taps = append(taps, best)
	}
	// Compare against the core-aligned strategy: placing regulators at the
	// load sites themselves (point-of-load delivery). Greedy keeps its
	// centroid-seeded first tap forever, which can strand it on symmetric
	// floorplans; the core-aligned placement is often strictly better for
	// n <= len(cores).
	aligned := alignByFarthestPoint(cores, n)
	if len(aligned) == n {
		wG, _, err := evaluate(ctx, taps)
		if err != nil {
			return nil, err
		}
		wA, _, err := evaluate(ctx, aligned)
		if err != nil {
			return nil, err
		}
		if wA < wG {
			return aligned, nil
		}
	}
	return taps, nil
}

// alignByFarthestPoint picks min(n, len(cores)) core sites by farthest-point
// traversal (maximizing mutual spread), padding with repeats avoided.
func alignByFarthestPoint(cores []Point, n int) []Point {
	if n > len(cores) {
		n = len(cores)
	}
	out := []Point{cores[0]}
	for len(out) < n {
		bestD := -1
		var best Point
		for _, c := range cores {
			if containsPoint(out, c) {
				continue
			}
			// Distance to the nearest already-chosen site.
			nearest := int(^uint(0) >> 1)
			for _, o := range out {
				if d := dist2(c, o); d < nearest {
					nearest = d
				}
			}
			if nearest > bestD {
				bestD = nearest
				best = c
			}
		}
		out = append(out, best)
	}
	return out
}

func dist2(a, b Point) int {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

func containsPoint(ps []Point, p Point) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// QuadCores returns four core sites at the quadrant centers — the 4-SM
// floorplan of the case study.
func (m *Mesh) QuadCores() []Point {
	return []Point{
		{m.W / 4, m.H / 4},
		{3 * m.W / 4, m.H / 4},
		{m.W / 4, 3 * m.H / 4},
		{3 * m.W / 4, 3 * m.H / 4},
	}
}
