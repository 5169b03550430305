package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"ivory/internal/numeric"
)

// goldenExhaustiveDigest and goldenAdaptiveDigest are the SHA-256 of the
// appendOutcome records of the goldenSpecs that run the exhaustive and
// the adaptive search respectively. They pin every ranked label, every
// metric bit, the rejection accounting and every error string of the
// generated specs, so a performance change to the sizing path that
// claims unchanged output must leave both as they are; a change to the
// adaptive search alone moves only the adaptive one.
// Regenerate them only for a change that means to move model or search
// output, and say so in the change description.
const (
	goldenExhaustiveDigest = "0c3060fa3bfb5ebc5d756e2f114e89dbf2c248f740e192e4f365fe5b45bfc5fd"
	goldenAdaptiveDigest   = "b3b77f09c49591c6ff55753cc4e238efc322e11753de4d0dce8cd51a6b7b487b"
)

// goldenSpecs draws a seeded spread of specs across four nodes, five input
// voltages, both search strategies, every objective and random Kinds
// subsets. Roughly one in eight gets an area budget too small for any
// converter, so the infeasible path and its error text are covered too.
func goldenSpecs(n int) []Spec {
	nodes := []string{"65nm", "45nm", "32nm", "22nm"}
	vins := []float64{1.2, 1.5, 1.8, 2.5, 3.3}
	rng := rand.New(rand.NewSource(20171))
	out := make([]Spec, n)
	for i := range out {
		s := Spec{
			NodeName:  nodes[rng.Intn(len(nodes))],
			VIn:       vins[rng.Intn(len(vins))],
			VOut:      0.5 + 0.6*rng.Float64(),
			IMax:      0.2 + 4*rng.Float64(),
			Objective: Objective(rng.Intn(3)),
		}
		s.AreaMax = (0.5 + s.IMax*(1+rng.Float64())) * 1e-6
		if rng.Intn(8) == 0 {
			s.AreaMax = 1e-9 * (1 + rng.Float64())
		}
		if rng.Intn(4) == 0 {
			s.Search = SearchAdaptive
		}
		if mask := rng.Intn(8); mask != 0 {
			for k := Kind(0); int(k) < numKinds; k++ {
				if mask&(1<<k) != 0 {
					s.Kinds = append(s.Kinds, k)
				}
			}
		}
		out[i] = s
	}
	return out
}

// appendOutcome appends the digest record of one exploration: the error
// text, the rejection count, the per-kind accounting, and each ranked
// candidate's label with the bits of every metric.
func appendOutcome(b []byte, i int, res *Result, err error) []byte {
	b = fmt.Appendf(b, "spec %d\n", i)
	if err != nil {
		b = fmt.Appendf(b, "err %s\n", err)
	}
	if res == nil {
		return b
	}
	b = fmt.Appendf(b, "rejected %d perkind %v\n", res.Rejected, res.Stats.PerKind)
	for _, c := range res.Candidates {
		m := c.Metrics
		b = fmt.Appendf(b, "%v|%s|%s", c.Kind, c.Label, m.Topology)
		for _, v := range []float64{
			m.VIn, m.VOut, m.ILoad, m.POut, m.Efficiency, m.RippleVpp, m.FSw, m.AreaDie, m.AreaBoard,
			m.Loss.Conduction, m.Loss.GateDrive, m.Loss.Parasitic, m.Loss.Leakage,
			m.Loss.Control, m.Loss.Magnetic, m.Loss.Dropout,
		} {
			b = fmt.Appendf(b, "|%x", math.Float64bits(v))
		}
		b = append(b, '\n')
	}
	return b
}

// TestExploreGoldenDigest is the standing bit-identity check over
// generated inputs: the explorations of the golden specs, split by search
// strategy, must hash to the committed digests.
func TestExploreGoldenDigest(t *testing.T) {
	hashes := map[SearchStrategy]hash.Hash{SearchExhaustive: sha256.New(), SearchAdaptive: sha256.New()}
	var rec []byte
	for i, spec := range goldenSpecs(300) {
		res, err := Explore(spec)
		rec = appendOutcome(rec[:0], i, res, err)
		_, _ = hashes[spec.Search].Write(rec) // a hash never fails to write
	}
	for _, c := range []struct {
		search SearchStrategy
		want   string
	}{{SearchExhaustive, goldenExhaustiveDigest}, {SearchAdaptive, goldenAdaptiveDigest}} {
		if got := hex.EncodeToString(hashes[c.search].Sum(nil)); got != c.want {
			t.Errorf("%v exploration digest %s, want %s: ranked output, metric bits, rejection counts or error text changed", c.search, got, c.want)
		}
	}
}

// TestExploreInvariantsOverGoldenSpecs checks physics invariants on every
// accepted candidate of the generated specs, under both search strategies:
// each loss term is finite and non-negative, the efficiency is the power
// balance POut/(POut + ΣLoss), 0 < η ≤ 1, and the die area fits the budget.
func TestExploreInvariantsOverGoldenSpecs(t *testing.T) {
	checked := 0
	for i, base := range goldenSpecs(300) {
		for _, search := range []SearchStrategy{SearchExhaustive, SearchAdaptive} {
			spec := base
			spec.Search = search
			res, err := Explore(spec)
			if err != nil {
				continue
			}
			for _, c := range res.Candidates {
				m := c.Metrics
				where := fmt.Sprintf("spec %d %v %s", i, search, c.Label)
				l := m.Loss
				for name, v := range map[string]float64{
					"conduction": l.Conduction, "gate drive": l.GateDrive, "parasitic": l.Parasitic,
					"leakage": l.Leakage, "control": l.Control, "magnetic": l.Magnetic, "dropout": l.Dropout,
				} {
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Fatalf("%s: %s loss %v", where, name, v)
					}
				}
				if want := m.POut / (m.POut + l.Total()); !numeric.ApproxEqual(m.Efficiency, want, 1e-12) {
					t.Fatalf("%s: efficiency %v, power balance gives %v", where, m.Efficiency, want)
				}
				if !(m.Efficiency > 0 && m.Efficiency <= 1) {
					t.Fatalf("%s: efficiency %v outside (0, 1]", where, m.Efficiency)
				}
				if m.AreaDie > spec.AreaMax {
					t.Fatalf("%s: die area %v over the %v budget", where, m.AreaDie, spec.AreaMax)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no accepted candidates to check")
	}
}
