package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ivory/internal/sc"
)

// oracleRank is the ranking rankCandidates replaced, kept as its oracle:
// sort.Slice over the rows themselves with rankLess, which recomputes
// finiteMetrics and the objective for both rows on every comparison.
func oracleRank(cands []Candidate, obj Objective, floor float64) []Candidate {
	cp := slices.Clone(cands)
	less := rankLess(obj, floor)
	sort.Slice(cp, func(i, j int) bool { return less(&cp[i], &cp[j]) })
	return cp
}

// withRankHazards returns cands plus the rows ranking must place exactly:
// bit-identical policy twins (same label and metrics, a distinct design),
// exact duplicates, and rows whose efficiency, area or ripple is NaN or
// infinite. Every row is tagged in Metrics.ILoad, which neither the
// objective nor the key reads, and the result is shuffled.
func withRankHazards(cands []Candidate, rng *rand.Rand) []Candidate {
	out := slices.Clone(cands)
	for i := 0; i < len(cands) && i < 6; i++ {
		c := cands[rng.Intn(len(cands))]
		twin := c
		if c.SC != nil {
			twin.SC = new(sc.Design)
		}
		out = append(out, twin, c)
		bad := c
		switch i % 3 {
		case 0:
			bad.Metrics.Efficiency = math.NaN()
		case 1:
			bad.Metrics.AreaDie = math.Inf(1)
		default:
			bad.Metrics.RippleVpp = math.NaN()
		}
		out = append(out, bad, bad)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].Metrics.ILoad = float64(i)
	}
	return out
}

// TestRankCandidatesMatchesRankLessSort pins rankCandidates to the oracle
// over the golden specs, both search strategies and every objective, with
// NaN and infinite rows, duplicates and policy twins mixed in: the same
// order key for key, and row for row, so which of two twins leads is
// unchanged too.
func TestRankCandidatesMatchesRankLessSort(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ranked := 0
	for i, base := range goldenSpecs(60) {
		for _, search := range []SearchStrategy{SearchExhaustive, SearchAdaptive} {
			for _, obj := range []Objective{MaxEfficiency, MinArea, MinNoise} {
				spec := base
				spec.Search, spec.Objective = search, obj
				res, err := Explore(spec)
				if err != nil {
					continue
				}
				rows := withRankHazards(res.Candidates, rng)
				floor := res.Spec.EfficiencyFloor
				want := oracleRank(rows, obj, floor)
				got := rankCandidates(obj, floor, candidatePtrs(rows))
				where := fmt.Sprintf("golden spec %d %v %v", i, search, obj)
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows ranked, oracle %d", where, len(got), len(want))
				}
				for r := range want {
					if gk, wk := candidateKey(got[r]), candidateKey(want[r]); gk != wk {
						t.Fatalf("%s: row %d has key %s, oracle %s", where, r, gk, wk)
					}
				}
				if g, w := candidateTags(got), candidateTags(want); !slices.Equal(g, w) {
					t.Fatalf("%s: row order %v, oracle %v", where, g, w)
				}
				ranked++
			}
		}
	}
	if ranked == 0 {
		t.Fatal("no golden spec ranked any candidate")
	}
}

// TestStatsSameWithAndWithoutCallbacks checks that the counters-only
// tracker, which folds the Pareto front once at the end, reports the same
// Stats as the live tracker a Progress or OnImproved callback selects:
// jobs, done, per-kind counts, pruning counts and front size.
func TestStatsSameWithAndWithoutCallbacks(t *testing.T) {
	type counts struct {
		Jobs, Done  int
		PerKind     [numKinds]KindStats
		PrunedBound int
		FrontSize   int
	}
	countsOf := func(s Stats) counts {
		return counts{s.Jobs, s.Done, s.PerKind, s.PrunedBound, s.FrontSize}
	}
	compared := 0
	for i, base := range goldenSpecs(80) {
		for _, search := range []SearchStrategy{SearchExhaustive, SearchAdaptive} {
			spec := base
			spec.Search = search
			quiet, err := Explore(spec)
			if err != nil {
				continue
			}
			want := countsOf(quiet.Stats)
			withProgress, withImproved := spec, spec
			withProgress.Progress = func(Stats) {}
			withImproved.OnImproved = func(Candidate, Stats) {}
			for name, live := range map[string]Spec{"Progress": withProgress, "OnImproved": withImproved} {
				res, err := Explore(live)
				if err != nil {
					t.Fatalf("golden spec %d %v with %s: %v", i, search, name, err)
				}
				if got := countsOf(res.Stats); got != want {
					t.Fatalf("golden spec %d %v: stats with %s %+v, without callbacks %+v", i, search, name, got, want)
				}
			}
			if want.FrontSize == 0 {
				t.Fatalf("golden spec %d %v: empty front over %d candidates", i, search, len(quiet.Candidates))
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no golden spec was feasible")
	}
}

// TestExploreAllocs guards the allocation savings of the exploration
// path: merge-free ranking on precomputed keys, exactly sized per-ref
// outcomes and enumeration, format-free labels, the buck scorer and the
// memoized ratio topologies, and the SC regulation screen and in-place
// scoring, which allocate nothing. The case-study exploration at
// Workers=1 took 529 allocations before them and 235 after (236 under
// the race detector); the ceiling leaves 5% of headroom above 235.
func TestExploreAllocs(t *testing.T) {
	spec := CaseStudySpec("45nm")
	spec.Workers = 1
	if _, err := Explore(spec); err != nil {
		t.Fatal(err)
	}
	const ceiling = 247
	if got := testing.AllocsPerRun(20, func() { _, _ = Explore(spec) }); got > ceiling {
		t.Errorf("%v allocations per case-study exploration, ceiling %d", got, ceiling)
	}
}
