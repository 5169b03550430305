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

// oracleRank is the oracle rankCandidates is held to: sort.Slice over the
// rows themselves with the formatting reference keyRankLess, which
// recomputes finiteMetrics and the objective for both rows on every
// comparison and formats both keys on every objective tie.
func oracleRank(cands []Candidate, obj Objective, floor float64) []Candidate {
	cp := slices.Clone(cands)
	less := keyRankLess(obj, floor)
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

// TestRankCandidatesMatchesKeyOracle pins rankCandidates to the oracle
// over the golden specs, both search strategies and every objective, with
// NaN and infinite rows, duplicates and policy twins mixed in: the same
// order key for key, and row for row, so which of two twins leads is
// unchanged too.
func TestRankCandidatesMatchesKeyOracle(t *testing.T) {
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

// fuzzRankRows decodes rows for FuzzRankOrder, five bytes a row: a header
// (kind, one of four labels that include a prefix pair, and a twin bit
// that repeats the previous row as a policy twin) and one index each into
// a table of efficiency, area and ripple values — NaN, ±Inf, ±0, near
// ties a step apart, values on both sides of every floor — plus a byte
// picking switching frequency and output power.
func fuzzRankRows(data []byte) []Candidate {
	labels := [...]string{"a x4", "a x40", "b x2", "z"}
	vals := [...]float64{
		0.8, 0.8, math.Nextafter(0.8, 1), 0.1, 0.25, 0.5, 0.95, 1,
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		2e-6, 3e-6, 0.01,
	}
	var rows []Candidate
	for ; len(data) >= 5 && len(rows) < 48; data = data[5:] {
		h := data[0]
		if h&0x80 != 0 && len(rows) > 0 {
			rows = append(rows, rows[len(rows)-1])
			continue
		}
		c := mkCand(Kind(h%numKinds), labels[(h>>2)&3], vals[data[1]&15], vals[data[2]&15], vals[data[3]&15])
		c.Metrics.FSw = [...]float64{1e8, 2e8}[data[4]&1]
		c.Metrics.POut = [...]float64{1, 2, math.NaN()}[(data[4]>>1)%3]
		rows = append(rows, c)
	}
	return rows
}

// FuzzRankOrder holds rankCandidates to the formatting reference over
// generated rows under every objective: the ranked candidateKey sequence
// must equal that of sort.SliceStable with keyRankLess.
func FuzzRankOrder(f *testing.F) {
	f.Add(byte(0), []byte{0, 0, 13, 15, 0, 1, 0, 13, 15, 0, 0x80, 0, 0, 0, 0, 4, 3, 13, 15, 1})
	f.Add(byte(1), []byte{0, 10, 13, 15, 0, 4, 11, 13, 15, 2, 8, 12, 14, 10, 4, 2, 3, 8, 9, 0, 2, 3, 9, 8, 0})
	f.Add(byte(2), []byte{5, 6, 13, 15, 0, 9, 6, 14, 15, 1, 0x80, 0, 0, 0, 0, 12, 4, 13, 8, 4, 13, 1, 2, 15, 0})
	f.Add(byte(1), []byte{0, 10, 11, 10, 0, 1, 11, 10, 12, 0, 2, 0, 12, 11, 3, 4, 5, 10, 10, 1})
	f.Fuzz(func(t *testing.T, floorI byte, data []byte) {
		rows := fuzzRankRows(data)
		floor := [...]float64{0, 0.25, 0.8}[floorI%3]
		for _, obj := range []Objective{MaxEfficiency, MinArea, MinNoise} {
			want := slices.Clone(rows)
			less := keyRankLess(obj, floor)
			sort.SliceStable(want, func(i, j int) bool { return less(&want[i], &want[j]) })
			got := rankCandidates(obj, floor, candidatePtrs(rows))
			for r := range want {
				if gk, wk := candidateKey(got[r]), candidateKey(want[r]); gk != wk {
					t.Fatalf("%v floor %g: row %d has key %s, reference %s", obj, floor, r, gk, wk)
				}
			}
		}
	})
}
