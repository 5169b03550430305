package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// goldenExploreDigest is the SHA-256 of the appendOutcome records of
// goldenSpecs. It pins every ranked label, every metric bit, the rejection
// accounting and every error string of the generated specs, so a
// performance change to the sizing path that claims unchanged output must
// leave it as it is.
// Regenerate it only for a change that means to move model output, and
// say so in the change description.
const goldenExploreDigest = "8fc835ef8d813fd3d4dfd5cbd920d89395dca8385c3c6b0c7bb8bcfd62af521b"

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
// generated inputs: the exploration of every golden spec must hash to the
// committed digest.
func TestExploreGoldenDigest(t *testing.T) {
	h := sha256.New()
	var rec []byte
	for i, spec := range goldenSpecs(300) {
		res, err := Explore(spec)
		rec = appendOutcome(rec[:0], i, res, err)
		_, _ = h.Write(rec) // a hash never fails to write
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenExploreDigest {
		t.Errorf("exploration digest %s, want %s: ranked output, metric bits, rejection counts or error text changed", got, goldenExploreDigest)
	}
}
