package core

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func smallSpec() Spec {
	return Spec{
		NodeName: "45nm",
		VIn:      3.3,
		VOut:     1.0,
		IMax:     6.0,
		AreaMax:  6e-6,
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []func(*Spec){
		func(s *Spec) { s.NodeName = "" },
		func(s *Spec) { s.VIn = 0 },
		func(s *Spec) { s.VOut = 4.0 }, // above VIn
		func(s *Spec) { s.IMax = 0 },
		func(s *Spec) { s.AreaMax = 0 },
	}
	for i, mut := range cases {
		sp := smallSpec()
		mut(&sp)
		if _, err := Explore(sp); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := Explore(Spec{NodeName: "nope", VIn: 2, VOut: 1, IMax: 1, AreaMax: 1e-6}); err == nil {
		t.Error("unknown node must fail")
	}
	// Failure injection: NaN and Inf inputs must be rejected up front, not
	// waved through positivity checks (NaN compares false to everything).
	nan := math.NaN()
	for i, mut := range []func(*Spec){
		func(s *Spec) { s.VIn = nan },
		func(s *Spec) { s.VOut = nan },
		func(s *Spec) { s.IMax = nan },
		func(s *Spec) { s.AreaMax = math.Inf(1) },
		func(s *Spec) { s.RippleMax = nan },
	} {
		sp := smallSpec()
		mut(&sp)
		if _, err := Explore(sp); err == nil {
			t.Errorf("NaN/Inf case %d must fail", i)
		}
	}
}

func TestExploreFindsAllFamilies(t *testing.T) {
	res, err := Explore(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	for _, k := range []Kind{KindSC, KindBuck, KindLDO} {
		if _, ok := res.BestOfKind(k); !ok {
			t.Errorf("no feasible %v design", k)
		}
	}
	// Ranked best-first under MaxEfficiency.
	for i := 1; i < len(res.Candidates); i++ {
		if res.Candidates[i].Metrics.Efficiency > res.Candidates[i-1].Metrics.Efficiency+1e-12 {
			t.Fatal("candidates not ranked by efficiency")
		}
	}
	// Every candidate respects the area budget.
	for _, c := range res.Candidates {
		if c.Metrics.AreaDie > res.Spec.AreaMax {
			t.Errorf("%s exceeds area budget: %v", c.Label, c.Metrics.AreaDie)
		}
	}
}

// The paper's Table 2 ordering: SC beats buck beats LDO for the GPU spec.
func TestCaseStudyOrdering(t *testing.T) {
	res, err := Explore(CaseStudySpec("45nm"))
	if err != nil {
		t.Fatal(err)
	}
	scBest, ok1 := res.BestOfKind(KindSC)
	buckBest, ok2 := res.BestOfKind(KindBuck)
	ldoBest, ok3 := res.BestOfKind(KindLDO)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing families in the case study")
	}
	if !(scBest.Metrics.Efficiency > buckBest.Metrics.Efficiency &&
		buckBest.Metrics.Efficiency > ldoBest.Metrics.Efficiency) {
		t.Errorf("ordering violated: SC %.3f, buck %.3f, LDO %.3f",
			scBest.Metrics.Efficiency, buckBest.Metrics.Efficiency, ldoBest.Metrics.Efficiency)
	}
	// LDO efficiency pinned near VOut/VIn * etaI ~ 30%.
	if ldoBest.Metrics.Efficiency < 0.25 || ldoBest.Metrics.Efficiency > 0.32 {
		t.Errorf("LDO efficiency %v off the ratio line", ldoBest.Metrics.Efficiency)
	}
	// SC lands in the band around the paper's 80%.
	if scBest.Metrics.Efficiency < 0.60 || scBest.Metrics.Efficiency > 0.92 {
		t.Errorf("SC efficiency %v outside the expected band", scBest.Metrics.Efficiency)
	}
}

func TestObjectives(t *testing.T) {
	spMinArea := smallSpec()
	spMinArea.Objective = MinArea
	ra, err := Explore(spMinArea)
	if err != nil {
		t.Fatal(err)
	}
	spMaxEff := smallSpec()
	re, err := Explore(spMaxEff)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Best.Metrics.AreaDie > re.Best.Metrics.AreaDie {
		t.Errorf("MinArea best (%v m2) larger than MaxEfficiency best (%v m2)",
			ra.Best.Metrics.AreaDie, re.Best.Metrics.AreaDie)
	}
	spNoise := smallSpec()
	spNoise.Objective = MinNoise
	rn, err := Explore(spNoise)
	if err != nil {
		t.Fatal(err)
	}
	if rn.Best.Metrics.RippleVpp > re.Best.Metrics.RippleVpp {
		t.Errorf("MinNoise best ripple %v above MaxEfficiency best %v",
			rn.Best.Metrics.RippleVpp, re.Best.Metrics.RippleVpp)
	}
}

func TestKindsRestriction(t *testing.T) {
	sp := smallSpec()
	sp.Kinds = []Kind{KindLDO}
	res, err := Explore(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.Kind != KindLDO {
			t.Fatalf("unexpected %v candidate with LDO-only restriction", c.Kind)
		}
	}

	// Kinds is a set: repeats and listing order normalize away, so a
	// repeated family explores exactly the single-family space and the echo
	// comes back in enumeration order (SC < buck < LDO), not string order.
	sp.Kinds = []Kind{KindLDO, KindLDO}
	dup, err := Explore(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(dup.Candidates) != len(res.Candidates) || dup.Rejected != res.Rejected {
		t.Errorf("[LDO LDO] explored %d+%d configurations, [LDO] %d+%d",
			len(dup.Candidates), dup.Rejected, len(res.Candidates), res.Rejected)
	}
	listed := []Kind{KindLDO, KindSC, KindBuck, KindSC}
	norm, err := Spec{NodeName: "45nm", VIn: 1.8, VOut: 0.9, IMax: 1, AreaMax: 2e-6, Kinds: listed}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if want := []Kind{KindSC, KindBuck, KindLDO}; !slices.Equal(norm.Kinds, want) {
		t.Errorf("Normalized kinds %v, want %v", norm.Kinds, want)
	}
	if listed[0] != KindLDO || listed[3] != KindSC {
		t.Errorf("Normalized reordered the caller's slice: %v", listed)
	}
}

func TestRippleTargetHonored(t *testing.T) {
	sp := smallSpec()
	sp.RippleMax = 2e-3
	res, err := Explore(sp)
	if err != nil {
		t.Fatal(err)
	}
	// The best SC candidate should interleave to approach the target.
	c, ok := res.BestOfKind(KindSC)
	if !ok {
		t.Skip("no SC candidate")
	}
	if c.Metrics.RippleVpp > 5*sp.RippleMax {
		t.Errorf("SC ripple %v far above target %v", c.Metrics.RippleVpp, sp.RippleMax)
	}
}

func TestExploreDistributionTable(t *testing.T) {
	tbl, err := ExploreDistribution(CaseStudySpec("45nm"), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 2 {
		t.Fatalf("expected multiple families, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row.Efficiency) != 3 {
			t.Fatalf("row %v has %d entries", row.Kind, len(row.Efficiency))
		}
		// Efficiency roughly constant across distribution (proportional
		// split of load and area).
		var vals []float64
		for i, ok := range row.Feasible {
			if ok {
				vals = append(vals, row.Efficiency[i])
			}
		}
		if len(vals) >= 2 {
			for _, v := range vals[1:] {
				if diff := v - vals[0]; diff > 0.08 || diff < -0.08 {
					t.Errorf("%v: efficiency varies too much across distribution: %v", row.Kind, row.Efficiency)
				}
			}
		}
	}
	out := tbl.Format()
	for _, want := range []string{"efficiency (%)", "ripple (mV)", "f_sw (MHz)", "distribute: 1/2/4"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
	if _, err := ExploreDistribution(CaseStudySpec("45nm"), []int{0}); err == nil {
		t.Error("zero count must fail")
	}
}

func TestEnumStrings(t *testing.T) {
	if MaxEfficiency.String() != "max-efficiency" || MinArea.String() != "min-area" || MinNoise.String() != "min-noise" {
		t.Error("Objective strings")
	}
	if KindSC.String() != "SC" || KindBuck.String() != "buck" || KindLDO.String() != "LDO" {
		t.Error("Kind strings")
	}
	if Objective(9).String() == "" || Kind(9).String() == "" {
		t.Error("unknown enums")
	}
}
