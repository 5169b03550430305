package core

import (
	"fmt"
	"testing"
)

// familyBest returns the first (best-ranked) candidate of each kind in an
// already-ranked candidate list, keyed by Kind.
func familyBest(cands []Candidate) map[Kind]string {
	out := map[Kind]string{}
	for i := range cands {
		if _, seen := out[cands[i].Kind]; !seen {
			out[cands[i].Kind] = candidateKey(cands[i])
		}
	}
	return out
}

// paperSweepSpecs returns the specs committed across the repository's
// examples and smoke scripts — the sweeps the adaptive-vs-exhaustive
// equivalence test runs.
func paperSweepSpecs() []Spec {
	return []Spec{
		CaseStudySpec("45nm"), // examples/gpu-casestudy, the paper's Table 2
		{NodeName: "22nm", VIn: 1.8, VOut: 0.9, IMax: 2, AreaMax: 3e-6},  // examples/quickstart
		{NodeName: "45nm", VIn: 3.3, VOut: 0.95, IMax: 6, AreaMax: 5e-6}, // examples/dvfs-transient
		{NodeName: "45nm", VIn: 1.8, VOut: 0.9, IMax: 1, AreaMax: 2e-6},  // scripts/ivoryd_smoke.sh
	}
}

// TestAdaptiveMatchesExhaustiveOnPaperSweeps checks the adaptive search
// on every spec committed across the repository's examples and smoke
// scripts: under every objective it returns the same global best and the
// same top-3 ranked winners as the exhaustive reference, and on the specs
// as committed (default objective) it matches the per-family bests too
// and prunes wherever a topology's ceiling is below the winners. The
// conservation identity pins the accounting: every lattice point is
// either evaluated or explicitly counted pruned.
func TestAdaptiveMatchesExhaustiveOnPaperSweeps(t *testing.T) {
	for si, base := range paperSweepSpecs() {
		for _, obj := range []Objective{MaxEfficiency, MinArea, MinNoise} {
			ex := base
			ex.Objective = obj
			ad := ex
			ad.Search = SearchAdaptive
			rex, err := Explore(ex)
			if err != nil {
				t.Fatalf("spec%d %v exhaustive: %v", si, obj, err)
			}
			rad, err := Explore(ad)
			if err != nil {
				t.Fatalf("spec%d %v adaptive: %v", si, obj, err)
			}
			if msg := topDiff(rex, rad); msg != "" {
				t.Errorf("spec%d %v: %s", si, obj, msg)
			}
			if msg := accountingDiff(rex, rad); msg != "" {
				t.Errorf("spec%d %v: %s", si, obj, msg)
			}
			if rex.Stats.Pruned() != 0 {
				t.Errorf("spec%d %v: exhaustive run reported %d pruned", si, obj, rex.Stats.Pruned())
			}

			// The committed sweeps run the default objective; that is where
			// the per-family parity and the prune are pinned. The case-study
			// spec (spec0) has no SC ceiling below its winners.
			if obj != MaxEfficiency {
				continue
			}
			if si > 0 && rad.Stats.Pruned() == 0 {
				t.Errorf("spec%d: adaptive pruned nothing", si)
			}
			fbEx, fbAd := familyBest(rex.Candidates), familyBest(rad.Candidates)
			if len(fbEx) != len(fbAd) {
				t.Errorf("spec%d: families diverged: exhaustive %d, adaptive %d", si, len(fbEx), len(fbAd))
			}
			for k, want := range fbEx {
				if got := fbAd[k]; got != want {
					t.Errorf("spec%d: family %v best diverged\n  adaptive   %s\n  exhaustive %s", si, k, got, want)
				}
			}
		}
	}
}

// topDiff describes how the adaptive result's best and top three differ
// from the exhaustive one's, or returns "" when they match.
func topDiff(rex, rad *Result) string {
	if got, want := candidateKey(rad.Best), candidateKey(rex.Best); got != want {
		return fmt.Sprintf("best diverged\n  adaptive   %s\n  exhaustive %s", got, want)
	}
	for i := 0; i < winnersK && i < len(rex.Candidates); i++ {
		if i >= len(rad.Candidates) {
			return fmt.Sprintf("adaptive returned %d candidates, want top-%d", len(rad.Candidates), winnersK)
		}
		if got, want := candidateKey(rad.Candidates[i]), candidateKey(rex.Candidates[i]); got != want {
			return fmt.Sprintf("rank %d diverged\n  adaptive   %s\n  exhaustive %s", i, got, want)
		}
	}
	return ""
}

// accountingDiff checks that the adaptive run's evaluated and pruned
// configurations cover the exhaustive lattice exactly and that it ran
// every job it planned, or returns "" when both hold.
func accountingDiff(rex, rad *Result) string {
	exN, adN := rex.Stats.Evaluated(), rad.Stats.Evaluated()
	if adN+rad.Stats.Pruned() != exN {
		return fmt.Sprintf("accounting leak: adaptive %d evaluated + %d pruned != exhaustive %d", adN, rad.Stats.Pruned(), exN)
	}
	if rad.Stats.Jobs != rad.Stats.Done {
		return fmt.Sprintf("%d jobs but %d done", rad.Stats.Jobs, rad.Stats.Done)
	}
	return ""
}

// infeasibleSpec is the goldenSpecs index the halving search it replaced
// called infeasible although the exhaustive sweep finds designs for it.
const infeasibleSpec = 232

// TestAdaptiveExactOverGoldenSpecs is the exactness property of the
// adaptive search: over goldenSpecs(1500), under every objective, it
// agrees with the exhaustive sweep on feasibility (error text included),
// on the best and on the top three, and its evaluated and pruned counts
// cover the sweep's. It also checks the soundness invariant the prune
// rests on: no SC candidate of the sweep beats its topology's efficiency
// ceiling.
func TestAdaptiveExactOverGoldenSpecs(t *testing.T) {
	feasible, pruned := 0, 0
	for i, base := range goldenSpecs(1500) {
		for _, obj := range []Objective{MaxEfficiency, MinArea, MinNoise} {
			ex := base
			ex.Objective, ex.Workers, ex.Search = obj, 1, SearchExhaustive
			ad := ex
			ad.Search = SearchAdaptive
			rex, errEx := Explore(ex)
			rad, errAd := Explore(ad)
			if fmt.Sprint(errEx) != fmt.Sprint(errAd) {
				t.Fatalf("spec %d %v: exhaustive error %v, adaptive error %v", i, obj, errEx, errAd)
			}
			if i == infeasibleSpec && errAd != nil {
				t.Errorf("spec %d %v: adaptive is infeasible: %v", i, obj, errAd)
			}
			if errEx != nil {
				continue
			}
			feasible++
			pruned += rad.Stats.Pruned()
			if msg := topDiff(rex, rad); msg != "" {
				t.Errorf("spec %d %v: %s", i, obj, msg)
			}
			if msg := accountingDiff(rex, rad); msg != "" {
				t.Errorf("spec %d %v: %s", i, obj, msg)
			}
			for _, c := range rex.Candidates {
				if c.Kind != KindSC {
					continue
				}
				if bound := scEfficiencyBound(rex.Spec, c.SC.Config().Analysis); c.Metrics.Efficiency > bound {
					t.Fatalf("spec %d %s: efficiency %v above the ceiling %v", i, c.Label, c.Metrics.Efficiency, bound)
				}
			}
		}
	}
	if feasible == 0 || pruned == 0 {
		t.Fatalf("%d feasible explorations, %d configurations pruned: the property was not exercised", feasible, pruned)
	}
}

// TestAdaptiveDeterministicAcrossWorkers pins that every pruning decision
// happens at a deterministic stage boundary: the adaptive result —
// candidates, ranking, and the deterministic Stats counters — is
// bit-identical for any worker count.
func TestAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	base := CaseStudySpec("45nm")
	base.Search = SearchAdaptive
	var ref *Result
	for _, workers := range []int{1, 3, 8} {
		spec := base
		spec.Workers = workers
		res, err := Explore(spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if len(res.Candidates) != len(ref.Candidates) {
			t.Fatalf("workers=%d: %d candidates, want %d", workers, len(res.Candidates), len(ref.Candidates))
		}
		for i := range res.Candidates {
			if candidateKey(res.Candidates[i]) != candidateKey(ref.Candidates[i]) {
				t.Errorf("workers=%d: candidate %d diverged", workers, i)
			}
		}
		if res.Stats.PerKind != ref.Stats.PerKind ||
			res.Stats.PrunedBound != ref.Stats.PrunedBound ||
			res.Stats.Jobs != ref.Stats.Jobs ||
			res.Stats.FrontSize != ref.Stats.FrontSize {
			t.Errorf("workers=%d: stats diverged: %+v vs %+v", workers, res.Stats, ref.Stats)
		}
	}
}

// TestOnImprovedStreamsMonotonicBest pins the streaming contract behind
// /v1/explore/stream: OnImproved fires only on strict improvement under
// the spec's objective, in improving order, and its last emission is the
// run's final Best. It covers the case study and a sample of the golden
// specs under every objective and both search strategies, judged by the
// formatting reference keyRankLess.
func TestOnImprovedStreamsMonotonicBest(t *testing.T) {
	specs := append([]Spec{CaseStudySpec("45nm")}, goldenSpecs(12)...)
	streamed := 0
	for i, base := range specs {
		for _, search := range []SearchStrategy{SearchExhaustive, SearchAdaptive} {
			for _, obj := range []Objective{MaxEfficiency, MinArea, MinNoise} {
				spec := base
				spec.Search, spec.Objective = search, obj
				where := fmt.Sprintf("spec %d %v %v", i, search, obj)
				var seen []Candidate
				spec.OnImproved = func(c Candidate, s Stats) {
					seen = append(seen, c)
					if s.Done > s.Jobs {
						t.Errorf("%s: snapshot has Done %d > Jobs %d", where, s.Done, s.Jobs)
					}
				}
				res, err := Explore(spec)
				if err != nil {
					if i == 0 {
						t.Fatalf("%s: %v", where, err)
					}
					continue
				}
				if len(seen) == 0 {
					t.Fatalf("%s: OnImproved never fired", where)
				}
				less := keyRankLess(obj, res.Spec.EfficiencyFloor)
				for k := 1; k < len(seen); k++ {
					if !less(&seen[k], &seen[k-1]) {
						t.Errorf("%s: emission %d did not improve on %d", where, k, k-1)
					}
				}
				if got, want := candidateKey(seen[len(seen)-1]), candidateKey(res.Best); got != want {
					t.Errorf("%s: final emission %s != Best %s", where, got, want)
				}
				streamed++
			}
		}
	}
	if streamed < 6 {
		t.Fatalf("only %d runs streamed a best", streamed)
	}
	t.Logf("%d runs streamed a best", streamed)
}

// TestParseSearch covers the strategy surface shared with the DTO layer.
func TestParseSearch(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SearchStrategy
		ok   bool
	}{
		{"", SearchExhaustive, true},
		{"exhaustive", SearchExhaustive, true},
		{"Full", SearchExhaustive, true},
		{"adaptive", SearchAdaptive, true},
		{" PRUNED ", SearchAdaptive, true},
		{"greedy", SearchExhaustive, false},
	} {
		got, err := ParseSearch(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSearch(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if SearchAdaptive.String() != "adaptive" || SearchExhaustive.String() != "exhaustive" {
		t.Errorf("String() mismatch: %v %v", SearchExhaustive, SearchAdaptive)
	}
	if got := SearchStrategy(9).String(); got != "SearchStrategy(9)" {
		t.Errorf("unknown strategy String() = %q", got)
	}
}

// TestSearchValidation pins that out-of-range strategies are rejected up
// front rather than silently falling back to a sweep.
func TestSearchValidation(t *testing.T) {
	spec := CaseStudySpec("45nm")
	spec.Search = SearchStrategy(7)
	if _, err := Explore(spec); err == nil {
		t.Fatal("want error for unknown search strategy")
	}
}
