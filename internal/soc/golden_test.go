package soc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// goldenSweepDigest is the SHA-256 of the TestSweepGoldenDigest record: every
// cell (noise summary, guardband, area, ladder, infeasibility text), every
// ranked candidate, and the deterministic sweep counters. Regenerate it only
// for a change that means to move model output, and say so in the change
// description.
const goldenSweepDigest = "d90837a9996a937807e0dd5209bccbb858afb697146861e66bf3467edb522217"

func appendBits(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = fmt.Appendf(b, "|%x", math.Float64bits(v))
	}
	return b
}

// TestSweepGoldenDigest sweeps the default rail menu over a three-domain
// floorplan whose 1-core accelerator cannot take a distributed IVR, under an
// area budget that rejects some assignments.
func TestSweepGoldenDigest(t *testing.T) {
	fl, err := DefaultFloorplan()
	if err != nil {
		t.Fatal(err)
	}
	fl.Domains = []Domain{fl.Domains[0], fl.Domains[2], fl.Domains[4]} // cpu-big, gpu (phase-scheduled), npu
	res, err := Sweep(SweepSpec{Floorplan: fl, T: 3e-6, Dt: 5e-9, AreaBudgetMM2: 30, Top: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.CellsInfeasible == 0 || s.RejectedArea == 0 || s.Ranked == 0 {
		t.Fatalf("digest must cover infeasible cells, the budget and ranked candidates: %+v", s)
	}
	var b []byte
	for _, c := range res.Cells {
		st := c.VStats
		b = fmt.Appendf(b, "cell %s|%s|%s|%s|%d", c.Domain, c.Rail, c.Config, c.Infeasible, st.N)
		b = appendBits(b, st.Min, st.Max, st.Mean, st.Std, st.Q1, st.Median, st.Q3, st.WhiskerLo, st.WhiskerHi,
			c.NoiseVpp, c.WorstDroop, c.MarginV, c.AreaM2, c.PCoreW, c.PSourceW, c.Efficiency)
		b = append(b, '\n')
	}
	for _, c := range res.Candidates {
		b = fmt.Appendf(b, "cand %s|%v", c.Key, c.Rails)
		b = appendBits(b, c.AreaM2, c.PCoreW, c.PSourceW, c.Efficiency, c.WorstMarginV)
		b = append(b, '\n')
	}
	b = fmt.Appendf(b, "stats %d %d %d %d %d %d\n",
		s.Cells, s.CellsInfeasible, s.Assignments, s.Ranked, s.RejectedInfeasible, s.RejectedArea)
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != goldenSweepDigest {
		t.Errorf("sweep digest %s, want %s: a cell, candidate or counter changed", got, goldenSweepDigest)
	}
}
