package core

import (
	"testing"

	"ivory/internal/tech"
)

// Seam tests for the ConfigRef enumeration and EvalRefs, the evaluation
// entry point behind the Evaluator seam: slices must reproduce the full
// sweep exactly, enumeration must be reproducible, and malformed inputs
// must be rejected before any evaluation runs.

// outcomeEqual compares two outcomes candidate-by-candidate on the wire
// fields (kind, label, metrics); design pointers differ between
// evaluations and are not compared.
func outcomeEqual(a, b RefOutcome) bool {
	if a.Rejected != b.Rejected || len(a.Candidates) != len(b.Candidates) {
		return false
	}
	for i := range a.Candidates {
		x, y := a.Candidates[i], b.Candidates[i]
		if x.Kind != y.Kind || x.Label != y.Label || x.Metrics != y.Metrics {
			return false
		}
	}
	return true
}

func TestEnumerationIsReproducible(t *testing.T) {
	spec := smallSpec()
	if err := spec.defaults(); err != nil {
		t.Fatal(err)
	}
	node, err := tech.Lookup(spec.NodeName)
	if err != nil {
		t.Fatal(err)
	}
	a, preA := newEvalContext(spec, node).enumerate()
	b, preB := newEvalContext(spec, node).enumerate()
	if len(a) != len(b) || preA != preB {
		t.Fatalf("enumeration not reproducible: %d/%v vs %d/%v", len(a), preA, len(b), preB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs across enumerations: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEvalRefsValidation(t *testing.T) {
	spec := smallSpec()
	bad := []ConfigRef{
		{Kind: Kind(99)},
		{Kind: KindSC, Topo: 9999},
		{Kind: KindBuck, Axis: 9999},
		{Kind: KindLDO, Axis: -1},
	}
	for i, ref := range bad {
		if _, err := EvalRefs(spec, []ConfigRef{ref}); err == nil {
			t.Errorf("ref %d (%+v) must be rejected", i, ref)
		}
	}
}

// enumerated returns the spec's canonical ref enumeration and its
// enumeration-time rejection count.
func enumerated(t *testing.T, spec Spec) ([]ConfigRef, int) {
	t.Helper()
	if err := spec.defaults(); err != nil {
		t.Fatal(err)
	}
	node, err := tech.Lookup(spec.NodeName)
	if err != nil {
		t.Fatal(err)
	}
	refs, pre := newEvalContext(spec, node).enumerate()
	n := 0
	for _, k := range pre {
		n += k
	}
	return refs, n
}

// evalRange evaluates the half-open range [lo, hi) of the spec's canonical
// enumeration through EvalRefs.
func evalRange(t *testing.T, spec Spec, refs []ConfigRef, lo, hi int) *RangeResult {
	t.Helper()
	rr, err := EvalRefs(spec, refs[lo:hi])
	if err != nil {
		t.Fatalf("range [%d,%d): %v", lo, hi, err)
	}
	if len(rr.Outcomes) != hi-lo {
		t.Fatalf("range [%d,%d): %d outcomes", lo, hi, len(rr.Outcomes))
	}
	return rr
}

func TestExploreRangeSlicesTileFullSweep(t *testing.T) {
	spec := smallSpec()
	refs, _ := enumerated(t, spec)
	total := len(refs)
	if total == 0 {
		t.Fatal("empty enumeration")
	}
	whole := evalRange(t, spec, refs, 0, total)

	// Tile the space into three uneven ranges and re-evaluate: positional
	// concatenation must reproduce the whole-range outcomes exactly.
	cuts := []int{0, total / 3, total / 2, total}
	var tiled []RefOutcome
	for i := 0; i+1 < len(cuts); i++ {
		tiled = append(tiled, evalRange(t, spec, refs, cuts[i], cuts[i+1]).Outcomes...)
	}
	for i := range whole.Outcomes {
		if !outcomeEqual(whole.Outcomes[i], tiled[i]) {
			t.Fatalf("outcome %d differs between whole-range and tiled evaluation", i)
		}
	}
}

func TestExploreRangeMatchesExplore(t *testing.T) {
	spec := smallSpec()
	res, err := Explore(spec)
	if err != nil {
		t.Fatal(err)
	}
	refs, pre := enumerated(t, spec)
	whole := evalRange(t, spec, refs, 0, len(refs))
	n, rejected := 0, pre
	for _, o := range whole.Outcomes {
		n += len(o.Candidates)
		rejected += o.Rejected
	}
	if n != len(res.Candidates) {
		t.Errorf("range sweep found %d candidates, Explore found %d", n, len(res.Candidates))
	}
	if rejected != res.Rejected {
		t.Errorf("range sweep rejected %d, Explore rejected %d", rejected, res.Rejected)
	}
}

// TestEvalRefsMatchesRangeSlice: evaluating a slice of the enumeration
// reproduces that slice of the whole-space evaluation.
func TestEvalRefsMatchesRangeSlice(t *testing.T) {
	spec := smallSpec()
	refs, _ := enumerated(t, spec)
	whole := evalRange(t, spec, refs, 0, len(refs))
	lo, hi := len(refs)/4, len(refs)/2
	part := evalRange(t, spec, refs, lo, hi)
	for i := range part.Outcomes {
		if !outcomeEqual(part.Outcomes[i], whole.Outcomes[lo+i]) {
			t.Fatalf("outcome %d differs between slice [%d,%d) and whole evaluation", lo+i, lo, hi)
		}
	}
}
