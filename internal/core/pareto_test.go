package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

func mkCand(kind Kind, label string, eff, area, ripple float64) Candidate {
	c := Candidate{Kind: kind, Label: label}
	c.Metrics.Efficiency = eff
	c.Metrics.AreaDie = area
	c.Metrics.RippleVpp = ripple
	c.Metrics.FSw = 1e8
	c.Metrics.POut = 1
	return c
}

// TestRankDeterministicUnderPermutation is the regression test for the
// ranked-merge determinism bug: labels are not unique and objective scores
// tie, so without the canonical-key tie-break the final order depended on
// input (shard-merge) order. Every permutation must rank byte-identically.
func TestRankDeterministicUnderPermutation(t *testing.T) {
	cands := []Candidate{
		mkCand(KindSC, "a x4", 0.80, 2e-6, 0.01),
		mkCand(KindSC, "a x4", 0.80, 2e-6, 0.02), // same label+eff+area, differs in ripple
		mkCand(KindBuck, "b x1", 0.80, 3e-6, 0.01),
		mkCand(KindSC, "c x2", 0.80, 1e-6, 0.01), // ties eff with a/b
		mkCand(KindLDO, "d", 0.55, 1e-6, 0.00),
		mkCand(KindSC, "e x8", 0.91, 4e-6, 0.03),
	}
	rankOrder := func(in []Candidate) string {
		cp := append([]Candidate(nil), in...)
		sort.Slice(cp, rankSliceLess(cp, MaxEfficiency, 0))
		keys := make([]string, len(cp))
		for i := range cp {
			keys[i] = candidateKey(cp[i])
		}
		return strings.Join(keys, "\n")
	}
	want := rankOrder(cands)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		perm := append([]Candidate(nil), cands...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if got := rankOrder(perm); got != want {
			t.Fatalf("trial %d: ranking depends on input order\ngot:\n%s\nwant:\n%s", trial, got, want)
		}
	}
}

// rankSliceLess adapts the package ranking to sort.Slice for the test.
func rankSliceLess(cp []Candidate, obj Objective, floor float64) func(i, j int) bool {
	less := rankingLess(obj, floor)
	return func(i, j int) bool { return less(&cp[i], &cp[j]) }
}

// rankingLess adapts the package ranking to a comparator on rows.
func rankingLess(obj Objective, floor float64) func(a, b *Candidate) bool {
	r := ranking{obj, floor}
	return func(a, b *Candidate) bool {
		ka, kb := r.key(a), r.key(b)
		return r.less(&ka, &kb)
	}
}

// TestRankNaNRowsSink pins that candidates with non-finite metrics never
// outrank finite ones under any objective and land in a deterministic
// position (the tail), regardless of where the input order put them.
func TestRankNaNRowsSink(t *testing.T) {
	nan := math.NaN()
	rows := []Candidate{
		mkCand(KindSC, "nan-eff", nan, 2e-6, 0.01),
		mkCand(KindSC, "ok-low", 0.10, 2e-6, 0.01),
		mkCand(KindBuck, "inf-area", 0.90, math.Inf(1), 0.01),
		mkCand(KindSC, "ok-high", 0.90, 2e-6, 0.01),
		mkCand(KindLDO, "nan-ripple", 0.70, 1e-6, nan),
	}
	for _, obj := range []Objective{MaxEfficiency, MinArea, MinNoise} {
		for trial := 0; trial < 8; trial++ {
			cp := append([]Candidate(nil), rows...)
			rand.New(rand.NewSource(int64(trial))).Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
			sort.Slice(cp, rankSliceLess(cp, obj, 0.25))
			for i := range cp[:2] {
				if c := &cp[i]; !finiteMetrics(c) {
					t.Fatalf("%v trial %d: non-finite row %q ranked %d", obj, trial, c.Label, i)
				}
			}
			for i := range cp[2:] {
				if c := &cp[2+i]; finiteMetrics(c) {
					t.Fatalf("%v trial %d: finite row %q sank below NaN rows", obj, trial, c.Label)
				}
			}
		}
	}
}

// batchFront is the O(n²) reference the incremental ParetoSet is checked
// against: keep every candidate no other candidate dominates.
func batchFront(in []Candidate) map[string]int {
	out := map[string]int{}
	for i := range in {
		if !finiteMetrics(&in[i]) {
			continue
		}
		dominated := false
		for j := range in {
			if i != j && finiteMetrics(&in[j]) && dominates(&in[j], &in[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			// Exact duplicates never dominate each other, so the front is
			// a multiset: count occurrences per canonical key.
			out[candidateKey(in[i])]++
		}
	}
	return out
}

// TestParetoSetMatchesBatch drives the incremental front with randomized
// candidates and insertion orders and checks it always lands on the batch
// answer.
func TestParetoSetMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(30)
		cands := make([]Candidate, n)
		for i := range cands {
			// Coarse metric grid to force plenty of ties and duplicates.
			cands[i] = mkCand(KindSC, "p", float64(rng.Intn(5))/5, float64(1+rng.Intn(4))*1e-6, float64(rng.Intn(3))*0.01)
		}
		if trial%5 == 4 {
			cands[rng.Intn(n)].Metrics.Efficiency = math.NaN()
		}
		set := NewParetoSet()
		for i := range cands {
			set.Insert(&cands[i])
		}
		want := batchFront(cands)
		got := map[string]int{}
		total := 0
		for _, c := range set.items {
			if !finiteMetrics(c) {
				t.Fatalf("trial %d: non-finite candidate on front", trial)
			}
			got[candidateKey(*c)]++
		}
		for k, n := range want {
			total += n
			if got[k] != n {
				t.Fatalf("trial %d: key %s appears %d times on incremental front, batch says %d", trial, k, got[k], n)
			}
		}
		if set.Size() != total {
			t.Fatalf("trial %d: front size %d, want %d", trial, set.Size(), total)
		}
	}
}

// TestResultFrontsExcludeNonFinite feeds the exploration's Pareto front a
// mix of finite and NaN rows: only the finite ones may join.
func TestResultFrontsExcludeNonFinite(t *testing.T) {
	set := NewParetoSet()
	for _, c := range []Candidate{
		mkCand(KindSC, "ok", 0.9, 2e-6, 0.01),
		mkCand(KindSC, "bad", math.NaN(), 1e-6, 0.01),
		mkCand(KindBuck, "ok2", 0.5, 1e-6, 0.05),
	} {
		if joined := set.Insert(&c); joined != finiteMetrics(&c) {
			t.Errorf("Insert(%q) = %v, want %v", c.Label, joined, finiteMetrics(&c))
		}
	}
	if set.Size() != 2 {
		t.Fatalf("front size %d, want the 2 finite rows", set.Size())
	}
}

// objectiveLess is the reference objective comparison, a strict partial
// order on rows: ties (and NaN pairs) compare false both ways.
func objectiveLess(obj Objective, floor float64) func(a, b *Candidate) bool {
	switch obj {
	case MinArea:
		return func(a, b *Candidate) bool {
			aOK, bOK := a.Metrics.Efficiency >= floor, b.Metrics.Efficiency >= floor
			if aOK != bOK {
				return aOK
			}
			return a.Metrics.AreaDie < b.Metrics.AreaDie
		}
	case MinNoise:
		return func(a, b *Candidate) bool {
			aOK, bOK := a.Metrics.Efficiency >= floor, b.Metrics.Efficiency >= floor
			if aOK != bOK {
				return aOK
			}
			return a.Metrics.RippleVpp < b.Metrics.RippleVpp
		}
	default:
		return func(a, b *Candidate) bool {
			return a.Metrics.Efficiency > b.Metrics.Efficiency
		}
	}
}

// keyRankLess is the reference order the package ranking must reproduce:
// finite rows first, ranked by objectiveLess, then non-finite rows, and
// every pair the objective does not order formats and compares both
// canonical keys.
func keyRankLess(obj Objective, floor float64) func(a, b *Candidate) bool {
	less := objectiveLess(obj, floor)
	return func(a, b *Candidate) bool {
		af, bf := finiteMetrics(a), finiteMetrics(b)
		if af != bf {
			return af
		}
		if af && less(a, b) {
			return true
		}
		if af && less(b, a) {
			return false
		}
		return candidateKey(*a) < candidateKey(*b)
	}
}

// tieRows builds rows that tie under every objective in as many ways as
// the key allows: bit-identical twins, near ties that differ in one key
// field only, signed zeros, NaN rows (two NaN payloads share a key) and
// rows below the efficiency floor.
func tieRows() []Candidate {
	twin := mkCand(KindSC, "a x4", 0.8, 2e-6, 0.01)
	rows := []Candidate{
		twin, twin, twin,
		mkCand(KindSC, "a x4", 0.8, 3e-6, 0.01),
		mkCand(KindSC, "a x4", 0.8, 2e-6, 0.02),
		mkCand(KindBuck, "a x4", 0.8, 2e-6, 0.01),
		mkCand(KindSC, "b x4", 0.8, 2e-6, 0.01),
		mkCand(KindSC, "z", 0.8, 2e-6, 0),
		mkCand(KindSC, "z", 0.8, 2e-6, math.Copysign(0, -1)),
		mkCand(KindSC, "n", math.NaN(), 2e-6, 0.01),
		mkCand(KindSC, "n", math.Float64frombits(0x7ff8000000000001), 2e-6, 0.01),
		mkCand(KindLDO, "inf", 0.8, math.Inf(1), 0.01),
		mkCand(KindSC, "low", 0.1, 1e-6, 0.01),
		mkCand(KindSC, "low", 0.1, 1e-6, 0.01),
		mkCand(KindBuck, "low", 0.1, 1e-6, 0.02),
	}
	fsw := twin
	fsw.Metrics.FSw = 2e8
	pout := twin
	pout.Metrics.POut = 2
	return append(rows, fsw, pout)
}

// rankedTags sorts a copy of in with less and returns the tag each row
// carries in Metrics.ILoad — a field neither the objective nor the key
// reads — so two orders compare row for row, twins included.
func rankedTags(in []Candidate, less func(a, b *Candidate) bool) []float64 {
	cp := slices.Clone(in)
	sort.Slice(cp, func(i, j int) bool { return less(&cp[i], &cp[j]) })
	return candidateTags(cp)
}

// candidatePtrs points at every row of cands, the form rankCandidates
// ranks.
func candidatePtrs(cands []Candidate) []*Candidate {
	ptrs := make([]*Candidate, len(cands))
	for i := range cands {
		ptrs[i] = &cands[i]
	}
	return ptrs
}

func candidateTags(cands []Candidate) []float64 {
	tags := make([]float64, len(cands))
	for i := range cands {
		tags[i] = cands[i].Metrics.ILoad
	}
	return tags
}

// checkRankMatchesKeyOrder sorts several shuffles of cands with the
// package ranking, with rankCandidates and with the reference
// keyRankLess, and requires the same order from all three.
func checkRankMatchesKeyOrder(t *testing.T, where string, cands []Candidate, obj Objective, floor float64) {
	t.Helper()
	tagged := slices.Clone(cands)
	for i := range tagged {
		tagged[i].Metrics.ILoad = float64(i)
	}
	rng := rand.New(rand.NewSource(int64(len(cands))))
	for trial := 0; trial < 3; trial++ {
		rng.Shuffle(len(tagged), func(i, j int) { tagged[i], tagged[j] = tagged[j], tagged[i] })
		want := rankedTags(tagged, keyRankLess(obj, floor))
		if got := rankedTags(tagged, rankingLess(obj, floor)); !slices.Equal(got, want) {
			t.Fatalf("%s %v trial %d: ranking order %v, key order %v", where, obj, trial, got, want)
		}
		if got := candidateTags(rankCandidates(obj, floor, candidatePtrs(tagged))); !slices.Equal(got, want) {
			t.Fatalf("%s %v trial %d: rank order %v, key order %v", where, obj, trial, got, want)
		}
	}
}

// checkCompareKeys requires compareKeys to agree with comparing the
// formatted candidateKey strings on every pair of rows, including rows
// whose labels are prefixes of one another.
func checkCompareKeys(t *testing.T, where string, rows []Candidate) {
	t.Helper()
	for i := range rows {
		for j := range rows {
			a, b := &rows[i], &rows[j]
			if got, want := compareKeys(a, b), strings.Compare(candidateKey(*a), candidateKey(*b)); got != want {
				t.Fatalf("%s: compareKeys(%q, %q) = %d, key comparison %d", where, candidateKey(*a), candidateKey(*b), got, want)
			}
		}
	}
}

// TestCompareKeysRoundingTwins covers the ties compareKeys settles without
// formatting whole keys: same label, equal up to one metric that differs
// by a step in the last digit (so one rendering is a prefix of the
// other's), in every key position including the last.
func TestCompareKeysRoundingTwins(t *testing.T) {
	base := mkCand(KindSC, "a x4", 0.8, 5.356743330747128e-06, 0.02)
	rows := []Candidate{base}
	for _, set := range []func(m *Candidate, v float64){
		func(c *Candidate, v float64) { c.Metrics.Efficiency = v },
		func(c *Candidate, v float64) { c.Metrics.AreaDie = v },
		func(c *Candidate, v float64) { c.Metrics.RippleVpp = v },
		func(c *Candidate, v float64) { c.Metrics.FSw = v },
		func(c *Candidate, v float64) { c.Metrics.POut = v },
	} {
		for _, v := range []float64{0.1, 0.11, 0.125, 1, 10, 1e-7, 1.0000000000000002, math.NaN(), math.Inf(-1)} {
			c := base
			set(&c, v)
			rows = append(rows, c)
		}
	}
	rows = append(rows, mkCand(KindSC, "a x", 0.8, 2e-6, 0.02), mkCand(KindSC, "a x40", 0.8, 2e-6, 0.02), mkCand(KindBuck, "a x4", 0.8, 2e-6, 0.02))
	checkCompareKeys(t, "rounding twins", rows)
}

// TestRankTieBreakMatchesCandidateKey pins the formatting-free tie-break
// to the canonical key: compareKeys agrees with comparing the keys,
// equality included, on every pair of tie rows, and on those rows and on
// the ranked results of the golden specs, under both search strategies
// and every objective, the package ranking and rankCandidates order
// exactly as comparing candidateKey strings does.
func TestRankTieBreakMatchesCandidateKey(t *testing.T) {
	rows := tieRows()
	objectives := []Objective{MaxEfficiency, MinArea, MinNoise}
	for _, obj := range objectives {
		checkRankMatchesKeyOrder(t, "tie rows", rows, obj, 0.25)
	}
	checkCompareKeys(t, "tie rows", rows)
	ranked := 0
	for i, base := range goldenSpecs(40) {
		for _, search := range []SearchStrategy{SearchExhaustive, SearchAdaptive} {
			for _, obj := range objectives {
				spec := base
				spec.Search, spec.Objective = search, obj
				res, err := Explore(spec)
				if err != nil {
					continue
				}
				where := fmt.Sprintf("golden spec %d %v", i, search)
				checkRankMatchesKeyOrder(t, where, res.Candidates, obj, res.Spec.EfficiencyFloor)
				checkCompareKeys(t, where, res.Candidates[:min(len(res.Candidates), 40)])
				ranked++
			}
		}
	}
	if ranked == 0 {
		t.Fatal("no golden spec ranked any candidate")
	}
}
