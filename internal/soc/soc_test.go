package soc

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"ivory/internal/pdn"
	"ivory/internal/pds"
	"ivory/internal/workload"
)

// paperDomain mirrors the pds package's 4-SM test system (the paper's case
// study shape) as a one-domain floorplan, with every default overridden so
// the composition contract — not a coincidence of defaults — is what the
// equivalence test exercises.
func paperFloorplan(t *testing.T) *Floorplan {
	t.Helper()
	net, err := pdn.TypicalOffChip(100e-9, 1.2e-3)
	if err != nil {
		t.Fatal(err)
	}
	cfd, err := workload.Get("CFD")
	if err != nil {
		t.Fatal(err)
	}
	fl := &Floorplan{
		Name:    "paper-4sm",
		VSource: 3.3,
		Network: net,
		Seed:    999, // must be ignored: the domain overrides its seed
		Domains: []Domain{{
			Name:       "sm",
			Cores:      4,
			TDPPerCore: 5,
			VNominal:   0.85,
			GridR:      2.5e-3,
			GridL:      25e-12,
			Load:       workload.LoadModel{PNominal: 5, VNominal: 0.85, LeakFraction: 0.25},
			Workload:   cfd,
			Seed:       12345,
		}},
	}
	if err := fl.Validate(); err != nil {
		t.Fatal(err)
	}
	return fl
}

// paperSystem is the same configuration built directly as a pds.System.
func paperSystem(t *testing.T) *pds.System {
	t.Helper()
	net, err := pdn.TypicalOffChip(100e-9, 1.2e-3)
	if err != nil {
		t.Fatal(err)
	}
	return &pds.System{
		Cores:      4,
		TDPPerCore: 5,
		VNominal:   0.85,
		VSource:    3.3,
		Load:       workload.LoadModel{PNominal: 5, VNominal: 0.85, LeakFraction: 0.25},
		GridR:      2.5e-3,
		GridL:      25e-12,
		Network:    net,
		Seed:       12345,
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOneDomainEquivalence pins the composition contract: a one-domain
// floorplan shaped like the paper's 4-SM system must reproduce the direct
// pds simulation byte-for-byte — same traces, same solver path, same
// NoiseResult summary — for the off-chip VRM and 1/2/4 IVR configurations.
func TestOneDomainEquivalence(t *testing.T) {
	fl := paperFloorplan(t)
	sys := paperSystem(t)
	cfd, err := workload.Get("CFD")
	if err != nil {
		t.Fatal(err)
	}
	const T, dt = 10e-6, 5e-9
	ctx := context.Background()

	res, err := Sweep(SweepSpec{
		Floorplan: fl,
		Rails: []Rail{
			{Kind: OffChipVRM},
			{Kind: CentralizedIVR},
			{Kind: DistributedIVR, N: 2},
			{Kind: DistributedIVR, N: 4},
		},
		T: T, Dt: dt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(res.Cells))
	}

	// The sweep's auto design for a 20 W / 0.85 V domain is exactly the
	// case-study chip-level converter.
	des, err := AutoIVRDesign(20, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	direct := make([]*pds.NoiseResult, 4)
	for i, n := range []int{0, 1, 2, 4} {
		if direct[i], err = sys.Simulate(ctx, pds.Delivery{IVRs: n, SC: des}, cfd, T, dt, pds.SimOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, nr := range direct {
		cell := res.Cells[i]
		if cell.Infeasible != "" {
			t.Fatalf("cell %s unexpectedly infeasible: %s", cell.Rail, cell.Infeasible)
		}
		got := mustJSON(t, struct {
			S   any
			Vpp float64
			WD  float64
		}{cell.VStats, cell.NoiseVpp, cell.WorstDroop})
		want := mustJSON(t, struct {
			S   any
			Vpp float64
			WD  float64
		}{nr.VStats, nr.NoiseVpp, nr.WorstDroop})
		if !bytes.Equal(got, want) {
			t.Errorf("cell %s diverges from direct pds path:\n got %s\nwant %s", cell.Rail, got, want)
		}
	}
}

// smallFloorplan is a three-domain floorplan cheap enough to sweep
// repeatedly in the determinism tests.
func smallFloorplan(t *testing.T) *Floorplan {
	t.Helper()
	fl, err := DefaultFloorplan()
	if err != nil {
		t.Fatal(err)
	}
	fl.Domains = fl.Domains[:3] // cpu-big, cpu-little, gpu (phase-scheduled)
	return fl
}

// comparable strips the timing fields (wall clock, rate) that legitimately
// vary run to run; everything else must be bit-identical.
func comparable(t *testing.T, res *SweepResult) []byte {
	t.Helper()
	stats := res.Stats
	stats.Wall = 0
	stats.AssignmentsPerSec = 0
	return mustJSON(t, struct {
		Cells      []Cell
		Candidates []Candidate
		Stats      SweepStats
	}{res.Cells, res.Candidates, stats})
}

// TestSweepDeterminism pins the ranked output across worker counts and
// repeated runs: per-index cell slots plus serial canonical enumeration
// must make the result invariant.
func TestSweepDeterminism(t *testing.T) {
	fl := smallFloorplan(t)
	spec := SweepSpec{Floorplan: fl, T: 2e-6, Dt: 5e-9, AreaBudgetMM2: 40}
	var ref []byte
	for _, workers := range []int{1, 2, 8, 2} {
		spec.Workers = workers
		res, err := Sweep(spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := comparable(t, res)
		if ref == nil {
			ref = got
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("workers=%d output differs from workers=1 reference", workers)
		}
	}
}

func TestSweepStatsConsistency(t *testing.T) {
	fl := smallFloorplan(t)
	res, err := Sweep(SweepSpec{Floorplan: fl, T: 2e-6, Dt: 5e-9, AreaBudgetMM2: 12, Top: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Cells != 15 || s.Assignments != 125 {
		t.Fatalf("grid bookkeeping off: %+v", s)
	}
	if got := s.Ranked + s.RejectedInfeasible + s.RejectedArea; got != s.Assignments {
		t.Errorf("ranked %d + rejected %d+%d != assignments %d",
			s.Ranked, s.RejectedInfeasible, s.RejectedArea, s.Assignments)
	}
	if len(res.Candidates) != s.Ranked {
		t.Errorf("Top: -1 must retain all %d ranked candidates, got %d", s.Ranked, len(res.Candidates))
	}
	budgetM2 := res.AreaBudgetMM2 * 1e-6
	for i, c := range res.Candidates {
		if c.AreaM2 > budgetM2 {
			t.Errorf("candidate %d (%s) exceeds the area budget: %g m²", i, c.Key, c.AreaM2)
		}
		if i > 0 && res.Candidates[i-1].Efficiency < c.Efficiency {
			t.Errorf("ranking not descending at %d", i)
		}
	}
}

func TestSweepTopRetention(t *testing.T) {
	fl := smallFloorplan(t)
	all, err := Sweep(SweepSpec{Floorplan: fl, T: 2e-6, Dt: 5e-9, Top: -1})
	if err != nil {
		t.Fatal(err)
	}
	top3, err := Sweep(SweepSpec{Floorplan: fl, T: 2e-6, Dt: 5e-9, Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(top3.Candidates) != 3 {
		t.Fatalf("got %d candidates, want 3", len(top3.Candidates))
	}
	for i := range top3.Candidates {
		if top3.Candidates[i].Key != all.Candidates[i].Key {
			t.Errorf("top-3 entry %d is %s, full ranking has %s", i, top3.Candidates[i].Key, all.Candidates[i].Key)
		}
	}
}

func TestSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(SweepSpec{Context: ctx, T: 2e-6, Dt: 5e-9}); err == nil {
		t.Fatal("cancelled sweep must fail")
	}
}

func TestSweepRejectsBadSpecs(t *testing.T) {
	fl := smallFloorplan(t)
	cases := []SweepSpec{
		{Floorplan: fl, T: 1e-8, Dt: 5e-9},                       // too few samples
		{Floorplan: fl, AreaBudgetMM2: -1},                       // negative budget
		{Floorplan: fl, LDOHeadroomV: -0.1},                      // negative headroom
		{Floorplan: fl, Rails: []Rail{{Kind: RailKind(9)}}},      // unknown rail
		{Floorplan: fl, Rails: []Rail{{Kind: OffChipVRM, N: 2}}}, // instance count on a singleton rail
	}
	for i, spec := range cases {
		if _, err := Sweep(spec); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	bad := *fl
	bad.Domains = append([]Domain{}, fl.Domains...)
	bad.Domains[1].Name = bad.Domains[0].Name
	if _, err := Sweep(SweepSpec{Floorplan: &bad}); err == nil {
		t.Error("duplicate domain names must fail")
	}
}

func TestParseRail(t *testing.T) {
	good := map[string]Rail{
		"vrm":      {Kind: OffChipVRM},
		"off-chip": {Kind: OffChipVRM},
		"IVR":      {Kind: CentralizedIVR},
		"ivr1":     {Kind: CentralizedIVR},
		" ivr4 ":   {Kind: DistributedIVR, N: 4},
		"ldo":      {Kind: DigitalLDO},
	}
	for tok, want := range good {
		got, err := ParseRail(tok)
		if err != nil || got != want {
			t.Errorf("ParseRail(%q) = %v, %v; want %v", tok, got, err, want)
		}
	}
	for _, tok := range []string{"", "buck", "ivr0", "ivr-3", "ivrx"} {
		if _, err := ParseRail(tok); err == nil {
			t.Errorf("ParseRail(%q) must fail", tok)
		}
	}
	// Round trip through String.
	for _, r := range DefaultRails() {
		got, err := ParseRail(r.String())
		if err != nil || got != r {
			t.Errorf("round trip %v -> %q -> %v, %v", r, r.String(), got, err)
		}
	}
}

func TestNormalizeRails(t *testing.T) {
	in := []Rail{
		{Kind: DigitalLDO},
		{Kind: DistributedIVR, N: 4},
		{Kind: OffChipVRM},
		{Kind: DistributedIVR, N: 2},
		{Kind: OffChipVRM}, // duplicate
	}
	out, err := NormalizeRails(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []Rail{
		{Kind: OffChipVRM},
		{Kind: DistributedIVR, N: 2},
		{Kind: DistributedIVR, N: 4},
		{Kind: DigitalLDO},
	}
	if len(out) != len(want) {
		t.Fatalf("got %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("got %v, want %v", out, want)
		}
	}
	def, err := NormalizeRails(nil)
	if err != nil || len(def) != len(DefaultRails()) {
		t.Fatalf("empty menu must yield the default: %v, %v", def, err)
	}
}

func TestDomainSeedDerivation(t *testing.T) {
	fl := paperFloorplan(t)
	fl.Domains[0].Seed = 0
	s1 := fl.system(fl.Domains[0])
	if s1.Seed == 999 || s1.Seed == 0 {
		t.Errorf("derived seed must mix the domain name, got %d", s1.Seed)
	}
	d2 := fl.Domains[0]
	d2.Name = "other"
	if s2 := fl.system(d2); s2.Seed == s1.Seed {
		t.Error("sibling domains must get distinct derived seeds")
	}
}
