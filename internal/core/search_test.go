package core

import (
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

// TestAdaptiveMatchesExhaustiveOnPaperSweeps is the tentpole equivalence
// contract: on every spec committed across the repository's examples and
// smoke scripts, the adaptive search returns the same global best and the
// same top-3 ranked winners as the exhaustive reference — under every
// objective — while, on the specs as committed (default objective),
// evaluating at least 10x fewer configurations and matching the
// per-family bests too. The conservation identity pins the accounting:
// every lattice point is either evaluated or explicitly counted pruned.
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

			if got, want := candidateKey(rad.Best), candidateKey(rex.Best); got != want {
				t.Errorf("spec%d %v: best diverged\n  adaptive   %s\n  exhaustive %s", si, obj, got, want)
			}
			for i := 0; i < 3 && i < len(rex.Candidates); i++ {
				if i >= len(rad.Candidates) {
					t.Errorf("spec%d %v: adaptive returned %d candidates, want top-3", si, obj, len(rad.Candidates))
					break
				}
				if got, want := candidateKey(rad.Candidates[i]), candidateKey(rex.Candidates[i]); got != want {
					t.Errorf("spec%d %v: rank %d diverged\n  adaptive   %s\n  exhaustive %s", si, obj, i, got, want)
				}
			}

			// Conservation: evaluated + pruned must cover the exhaustive
			// lattice exactly, so the pruning telemetry can be trusted.
			exN, adN := rex.Stats.Evaluated(), rad.Stats.Evaluated()
			if adN+rad.Stats.Pruned() != exN {
				t.Errorf("spec%d %v: accounting leak: adaptive %d evaluated + %d pruned != exhaustive %d",
					si, obj, adN, rad.Stats.Pruned(), exN)
			}
			if rad.Stats.Jobs != rad.Stats.Done {
				t.Errorf("spec%d %v: %d jobs but %d done", si, obj, rad.Stats.Jobs, rad.Stats.Done)
			}
			if rex.Stats.Pruned() != 0 {
				t.Errorf("spec%d %v: exhaustive run reported %d pruned", si, obj, rex.Stats.Pruned())
			}

			// The committed sweeps run the default objective; that is where
			// the ISSUE's 10x bar and the per-family parity are pinned.
			// Under the floor-gated objectives the SC family best is
			// near-degenerate across lattice cells (areas differ by
			// fractions of a percent), so halving only guarantees the
			// global winners there.
			if obj != MaxEfficiency {
				continue
			}
			if ratio := float64(exN) / float64(adN); ratio < 10 {
				t.Errorf("spec%d: adaptive evaluated %d of %d (%.1fx), want >=10x", si, adN, exN, ratio)
			}
			if rad.Stats.Pruned() == 0 {
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
			res.Stats.PrunedHalving != ref.Stats.PrunedHalving ||
			res.Stats.Jobs != ref.Stats.Jobs ||
			res.Stats.FrontSize != ref.Stats.FrontSize {
			t.Errorf("workers=%d: stats diverged: %+v vs %+v", workers, res.Stats, ref.Stats)
		}
	}
}

// TestOnImprovedStreamsMonotonicBest pins the streaming contract behind
// /v1/explore/stream: OnImproved fires only on strict improvement under
// the spec's objective, in improving order, and its last emission is the
// run's final Best.
func TestOnImprovedStreamsMonotonicBest(t *testing.T) {
	for _, search := range []SearchStrategy{SearchExhaustive, SearchAdaptive} {
		spec := CaseStudySpec("45nm")
		spec.Search = search
		less := rankLess(spec.Objective, spec.EfficiencyFloor)
		var seen []Candidate
		spec.OnImproved = func(c Candidate, s Stats) {
			seen = append(seen, c)
			if s.Done > s.Jobs {
				t.Errorf("%v: snapshot has Done %d > Jobs %d", search, s.Done, s.Jobs)
			}
		}
		res, err := Explore(spec)
		if err != nil {
			t.Fatalf("%v: %v", search, err)
		}
		if len(seen) == 0 {
			t.Fatalf("%v: OnImproved never fired", search)
		}
		for i := 1; i < len(seen); i++ {
			if !less(seen[i], seen[i-1]) {
				t.Errorf("%v: emission %d did not improve on %d", search, i, i-1)
			}
		}
		if got, want := candidateKey(seen[len(seen)-1]), candidateKey(res.Best); got != want {
			t.Errorf("%v: final emission %s != Best %s", search, got, want)
		}
	}
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
