package grid

import (
	"context"
	"math"
	"testing"
)

func mesh(t *testing.T, w, h int) *Mesh {
	t.Helper()
	m, err := NewMesh(w, h, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// effectiveResistance is a one-shot solve of the resistance a load at p
// sees against taps.
func effectiveResistance(m *Mesh, taps []Point, p Point) (float64, error) {
	s, err := m.NewSolver(taps)
	if err != nil {
		return 0, err
	}
	return s.EffectiveResistance(p)
}

// worstCase returns the largest effective resistance over cores against
// taps.
func worstCase(t *testing.T, m *Mesh, taps, cores []Point) float64 {
	t.Helper()
	s, err := m.NewSolver(taps)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.WorstCaseResistanceContext(context.Background(), cores)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewMeshValidation(t *testing.T) {
	if _, err := NewMesh(1, 5, 0.1); err == nil {
		t.Error("1-wide mesh must fail")
	}
	if _, err := NewMesh(4, 4, 0); err == nil {
		t.Error("zero tile resistance must fail")
	}
	if _, err := NewMesh(1000, 1000, 0.1); err == nil {
		t.Error("oversized mesh must fail")
	}
	// Dimensions whose products overflow int are rejected, not wrapped.
	for _, d := range [][2]int{{1 << 32, 1 << 32}, {math.MaxInt, 2}, {2, math.MaxInt}, {1 << 31, 1 << 33}} {
		if _, err := NewMesh(d[0], d[1], 0.05); err == nil {
			t.Errorf("%dx%d mesh must fail", d[0], d[1])
		}
	}
	// The band-factor budget: 127x127 fits, 128x128 does not, and a thin
	// mesh is held by the tile cap.
	if _, err := NewMesh(127, 127, 0.05); err != nil {
		t.Errorf("127x127 mesh: %v", err)
	}
	for _, d := range [][2]int{{128, 128}, {127, 200}, {2, 1<<15 + 1}} {
		if _, err := NewMesh(d[0], d[1], 0.05); err == nil {
			t.Errorf("%dx%d mesh must fail", d[0], d[1])
		}
	}
}

func TestEffectiveResistanceBasics(t *testing.T) {
	m := mesh(t, 16, 16)
	tap := Point{8, 8}
	// Load at the tap itself: essentially zero resistance.
	r0, err := effectiveResistance(m, []Point{tap}, tap)
	if err != nil {
		t.Fatal(err)
	}
	if r0 > 1e-6 {
		t.Errorf("resistance at the tap should be ~0, got %v", r0)
	}
	// Resistance grows with distance from the tap.
	rNear, err := effectiveResistance(m, []Point{tap}, Point{9, 8})
	if err != nil {
		t.Fatal(err)
	}
	rFar, err := effectiveResistance(m, []Point{tap}, Point{15, 15})
	if err != nil {
		t.Fatal(err)
	}
	if !(rNear > r0 && rFar > rNear) {
		t.Errorf("resistance should grow with distance: %v, %v, %v", r0, rNear, rFar)
	}
	// Bounds checks.
	if _, err := effectiveResistance(m, []Point{tap}, Point{99, 0}); err == nil {
		t.Error("out-of-bounds load must fail")
	}
	if _, err := effectiveResistance(m, []Point{{99, 99}}, tap); err == nil {
		t.Error("out-of-bounds tap must fail")
	}
	if _, err := effectiveResistance(m, nil, tap); err == nil {
		t.Error("no taps must fail")
	}
}

// The case-study assumption: distributing N IVRs shrinks the worst-case
// grid resistance roughly like 1/N.
func TestDistributionScaling(t *testing.T) {
	m := mesh(t, 24, 24)
	cores := m.QuadCores()
	r1 := worstCase(t, m, []Point{{12, 12}}, cores)
	// Two taps on the diagonal.
	r2 := worstCase(t, m, []Point{{6, 6}, {18, 18}}, cores)
	// Four taps at the quadrant centers (co-located with the cores).
	r4 := worstCase(t, m, cores, cores)
	t.Logf("R_eff: centralized %.4f, 2 taps %.4f, 4 taps %.4f", r1, r2, r4)
	if !(r1 > r2 && r2 > r4) {
		t.Errorf("distribution should reduce grid resistance: %v, %v, %v", r1, r2, r4)
	}
	// Ratio ballpark: 4 co-located taps nearly eliminate the spreading
	// resistance.
	if r4 > r1/3 {
		t.Errorf("4 co-located taps should cut resistance strongly: %v vs %v", r4, r1)
	}
}

// TestIRDropSuperposition checks the solver is linear in the injected
// core currents: doubling every current doubles every IR drop.
func TestIRDropSuperposition(t *testing.T) {
	m := mesh(t, 16, 16)
	s, err := m.NewSolver([]Point{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	cores := []Point{{8, 8}, {15, 15}}
	drops := func(scale float64) []float64 {
		b := make([]float64, m.W*m.H)
		for k, c := range cores {
			b[m.bandIdx(c)] += scale * float64(k+1)
		}
		x, err := s.chol.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		return []float64{x[m.bandIdx(cores[0])], x[m.bandIdx(cores[1])]}
	}
	d1, d2 := drops(1), drops(2)
	for k := range d1 {
		if d1[k] <= 0 || math.Abs(d2[k]-2*d1[k]) > 1e-6*d1[k] {
			t.Errorf("core %d: drop not linear: %v vs %v", k, d1[k], d2[k])
		}
	}
}

func TestPlaceIVRsImproves(t *testing.T) {
	m := mesh(t, 24, 24)
	cores := m.QuadCores()
	ctx := context.Background()
	taps1, err := m.PlaceIVRsContext(ctx, 1, cores)
	if err != nil {
		t.Fatal(err)
	}
	taps4, err := m.PlaceIVRsContext(ctx, 4, cores)
	if err != nil {
		t.Fatal(err)
	}
	r1, r4 := worstCase(t, m, taps1, cores), worstCase(t, m, taps4, cores)
	if r4 >= r1 {
		t.Errorf("4 placed IVRs should beat 1: %v vs %v", r4, r1)
	}
	// A corner placement must be worse than the heuristic's choice.
	if rCorner := worstCase(t, m, []Point{{0, 0}}, cores); r1 > rCorner {
		t.Errorf("heuristic single placement %v worse than a corner %v", r1, rCorner)
	}
	if _, err := m.PlaceIVRsContext(ctx, 0, cores); err == nil {
		t.Error("zero IVRs must fail")
	}
	if _, err := m.PlaceIVRsContext(ctx, 1, nil); err == nil {
		t.Error("no cores must fail")
	}
}

func TestQuadCoresInBounds(t *testing.T) {
	m := mesh(t, 10, 14)
	for _, c := range m.QuadCores() {
		if !m.inBounds(c) {
			t.Errorf("quad core %v out of bounds", c)
		}
	}
}
