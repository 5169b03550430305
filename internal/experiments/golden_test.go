package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"ivory/internal/pds"
)

// goldenFig13Digest is the SHA-256 of the TestFig13GoldenDigest record: the
// reduced-span noise cells and CFD waveforms Fig13Run derives its guardbands
// from, then every breakdown term, margin and the headline result.
// Regenerate it only for a change that means to move model output, and say
// so in the change description.
const goldenFig13Digest = "33ed8e39b39b3d0b13450a0f2ca679b6c02e1f675b237719958f7bc60328327b"

func appendBits(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = fmt.Appendf(b, "|%x", math.Float64bits(v))
	}
	return b
}

func TestFig13GoldenDigest(t *testing.T) {
	ctx := context.Background()
	noise, err := Fig10Run(ctx, TransientOptions{T: 4e-6, Dt: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fig13Run(ctx, noise, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b []byte
	for _, c := range noise.Cells {
		st := c.Stats
		b = fmt.Appendf(b, "cell %s|%s|%d", c.Benchmark, c.Config, st.N)
		b = appendBits(b, st.Min, st.Max, st.Mean, st.Std, st.Q1, st.Median, st.Q3, st.WhiskerLo, st.WhiskerHi,
			c.NoiseVpp, c.WorstDroop)
		b = append(b, '\n')
	}
	b = appendBits(append(b, "cfd t"...), noise.CFDTimes...)
	for _, n := range noiseConfigs {
		name := pds.Delivery{IVRs: n}.Name()
		b = appendBits(fmt.Appendf(b, "\ncfd %s", name), noise.CFDTraces[name]...)
	}
	for _, bd := range res.Breakdowns {
		b = fmt.Appendf(b, "\nbd %s", bd.Config)
		b = appendBits(b, res.Margins[bd.Config], bd.PCoreUseful, bd.PMargin, bd.PGridIR, bd.PIVRLoss,
			bd.PPDNIR, bd.PVRMLoss, bd.PSource, bd.Efficiency)
	}
	b = appendBits(fmt.Appendf(b, "\nbest %s", res.BestConfig), res.ImprovementPP)
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != goldenFig13Digest {
		t.Errorf("fig13 digest %s, want %s: a noise cell, waveform, breakdown term or headline changed", got, goldenFig13Digest)
	}
}
