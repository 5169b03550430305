package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ivory/internal/core"
	"ivory/internal/ivr"
	"ivory/internal/numeric"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenResult is a deterministic engine result: fixed metrics, fixed
// telemetry, no wall-clock dependence, so the JSON rendering is stable.
func goldenResult(t *testing.T) *core.Result {
	t.Helper()
	dto := SpecDTO{Node: "45nm", VInV: 1.8, VOutV: 0.9, IMaxA: 1, AreaMM2: 2, Kinds: []string{"SC", "buck"}}
	spec, err := dto.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{
		Spec:     norm,
		Rejected: 3,
		Candidates: []core.Candidate{
			{Kind: core.KindSC, Label: "2:1 MIM 16ph", Metrics: ivr.Metrics{
				Efficiency: 0.82, RippleVpp: 0.004, FSw: 120e6, AreaDie: 1.5e-6, POut: 0.9,
				Loss: ivr.LossBreakdown{Conduction: 0.08, GateDrive: 0.03, Parasitic: 0.02, Leakage: 0.005, Control: 0.002},
			}},
			{Kind: core.KindBuck, Label: "buck 2ph L=2nH", Metrics: ivr.Metrics{
				Efficiency: 0.78, RippleVpp: 0.006, FSw: 200e6, AreaDie: 1.8e-6, POut: 0.9,
				Loss: ivr.LossBreakdown{Conduction: 0.1, GateDrive: 0.04, Magnetic: 0.05},
			}},
		},
	}
	res.Best = res.Candidates[0]
	res.Stats = core.Stats{
		Jobs: 4, Done: 4,
		TopoCacheHits: 7, TopoCacheMisses: 2,
		Wall: 1500 * time.Millisecond, CandidatesPerSec: 42,
	}
	res.Stats.PerKind[core.KindSC] = core.KindStats{Accepted: 1, Rejected: 2}
	res.Stats.PerKind[core.KindBuck] = core.KindStats{Accepted: 1, Rejected: 1}
	return res
}

// TestExploreResponseGolden pins the wire schema byte-for-byte: a renamed or
// re-typed JSON field is an API break and must show up in review as a golden
// diff, not as a surprised client.
func TestExploreResponseGolden(t *testing.T) {
	resp := ExploreResponseFromResult(goldenResult(t), nil)
	got, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "explore_response.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/server -run Golden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ExploreResponse JSON drifted from golden schema.\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestSpecHashCanonical(t *testing.T) {
	vout := 0.9
	elided := SpecDTO{Node: "45nm", VInV: 1.8, VOutV: vout, IMaxA: 1, AreaMM2: 2}
	explicit := SpecDTO{
		Node: "45nm", VInV: 1.8, VOutV: vout, IMaxA: 1, AreaMM2: 2,
		// Computed, not literal: the engine defaults ripple to the runtime
		// product 0.01*VOut, which differs from the 0.009 literal in the
		// last bit.
		RippleMaxV: 0.01 * vout, EfficiencyFloor: 0.25, FSwMaxHz: 1e9,
		Objective: "max-efficiency", Kinds: []string{"LDO", "SC", "buck"},
	}
	h1 := hashOf(t, elided)
	h2 := hashOf(t, explicit)
	if h1 != h2 {
		t.Errorf("elided defaults hash %s != explicit defaults hash %s", h1, h2)
	}
	other := elided
	other.VOutV = 1.0
	if h3 := hashOf(t, other); h3 == h1 {
		t.Error("distinct specs collided")
	}
	if len(h1) != 16 {
		t.Errorf("hash %q is not 16 hex chars", h1)
	}
}

func hashOf(t *testing.T, d SpecDTO) string {
	t.Helper()
	spec, err := d.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	return SpecHash(norm)
}

func TestTransientRequestHashOrderInsensitive(t *testing.T) {
	a := TransientRequest{TUS: 5, Benchmarks: []string{"b", "a"}, Configs: []int{4, 0}}
	b := TransientRequest{TUS: 5, Benchmarks: []string{"a", "b"}, Configs: []int{0, 4}}
	if a.Hash() != b.Hash() {
		t.Error("benchmark/config order changed the hash")
	}
	c := TransientRequest{TUS: 5, Benchmarks: []string{"a"}, Configs: []int{0, 4}}
	if a.Hash() == c.Hash() {
		t.Error("distinct benchmark sets collided")
	}
}

func TestTrimmed(t *testing.T) {
	resp := &ExploreResponse{Candidates: make([]CandidateDTO, 25), TotalCandidates: 25}
	if n := len(resp.Trimmed(0).Candidates); n != 10 {
		t.Errorf("Trimmed(0) kept %d candidates, want the default 10", n)
	}
	if n := len(resp.Trimmed(-1).Candidates); n != 25 {
		t.Errorf("Trimmed(-1) kept %d, want all 25", n)
	}
	if n := len(resp.Trimmed(3).Candidates); n != 3 {
		t.Errorf("Trimmed(3) kept %d", n)
	}
	if n := len(resp.Trimmed(100).Candidates); n != 25 {
		t.Errorf("Trimmed(100) kept %d, want all 25", n)
	}
	// Trimming must not mutate the cached full response.
	if len(resp.Candidates) != 25 {
		t.Error("Trimmed mutated the receiver")
	}
	if resp.Trimmed(3).TotalCandidates != 25 {
		t.Error("Trimmed lost TotalCandidates")
	}
}

// TestSpecDTORoundTrip checks DTO -> Spec -> DTO is lossless for the fields
// the wire form carries.
func TestSpecDTORoundTrip(t *testing.T) {
	in := SpecDTO{
		Node: "45nm", VInV: 1.8, VOutV: 0.9, IMaxA: 2.5, AreaMM2: 4,
		RippleMaxV: 0.01, Objective: "min-area", EfficiencyFloor: 0.5,
		Kinds: []string{"SC", "LDO"}, FSwMaxHz: 5e8,
	}
	spec, err := in.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	out := SpecDTOFromSpec(spec)
	if out.Node != in.Node || out.Objective != "min-area" {
		t.Errorf("round trip drifted: %+v -> %+v", in, out)
	}
	for _, f := range []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"vin_v", out.VInV, in.VInV, 0},
		{"vout_v", out.VOutV, in.VOutV, 0},
		{"imax_a", out.IMaxA, in.IMaxA, 0},
		{"ripple_max_v", out.RippleMaxV, in.RippleMaxV, 0},
		{"efficiency_floor", out.EfficiencyFloor, in.EfficiencyFloor, 0},
		{"fsw_max_hz", out.FSwMaxHz, in.FSwMaxHz, 0},
		// Area goes through mm² -> m² -> mm²; allow float rounding.
		{"area_mm2", out.AreaMM2, in.AreaMM2, 1e-12},
	} {
		if !numeric.ApproxEqual(f.got, f.want, f.tol) {
			t.Errorf("%s round trip: %g -> %g", f.name, f.want, f.got)
		}
	}
	if len(out.Kinds) != 2 || out.Kinds[0] != "SC" || out.Kinds[1] != "LDO" {
		t.Errorf("kinds round trip: %v", out.Kinds)
	}
}
