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

// goldenValidationDigest is the SHA-256 of the TestValidationFiguresGolden
// record: Fig 4's settled voltages per row, every Fig 7 and Fig 8 point, and
// Fig 9's cycle-by-cycle series and error. Those outputs come from time
// stepping alone, so any change to how the runners schedule their
// simulations must leave them bit-identical.
const goldenValidationDigest = "8f523f5a1efa3df9d3f94afbf6c1bf8ef1546aa224ea9e950d01fd8e4648ad7c"

// goldenFig6Ratios and goldenFig9InCycleRippleSim are spectrum-derived: a
// change to the transform may move them by rounding, so they are held to
// spectralTol relative rather than to the digest.
var goldenFig6Ratios = []float64{0.15428691941948292, 1.1033364054399022, 0.88634442376934508}

const (
	goldenFig9InCycleRippleSim = 0.00069427368210204046
	spectralTol                = 1e-9
)

func TestValidationFiguresGolden(t *testing.T) {
	f4, err := Fig4(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	f6, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	f7, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	f8, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	f9, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	var b []byte
	for _, r := range f4.Rows {
		b = appendBits(append(b, "\nfig4"...), r.FSw, r.VSpice, r.VModel)
	}
	for _, c := range f7.Cases {
		b = appendBits(fmt.Appendf(b, "\nfig7 %s", c.Name), c.MaxErr)
		for _, p := range c.Points {
			b = appendBits(b, p.VOutTarget, p.EffModel, p.EffModelCond, p.EffSim, p.Err)
		}
	}
	for _, c := range f8.Cases {
		b = appendBits(fmt.Appendf(b, "\nfig8 %s", c.Name), c.MaxErr)
		for _, p := range c.Points {
			b = appendBits(b, p.ILoad, p.VOutTarget, p.EffModel, p.EffModelCond, p.EffSim, p.VSim, p.Err)
		}
	}
	b = appendBits(append(b, "\nfig9 t"...), f9.CycleTimes...)
	b = appendBits(append(b, "\nfig9 model"...), f9.CycleModel...)
	b = appendBits(append(b, "\nfig9 sim"...), f9.CycleSim...)
	b = appendBits(append(b, "\nfig9 err"...), f9.CycleRMSE, f9.CycleMaxErr, f9.InCycleRippleModel)
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != goldenValidationDigest {
		t.Errorf("validation digest %s, want %s: a Fig 4/7/8/9 simulation output changed", got, goldenValidationDigest)
	}

	within := func(name string, got, want float64) {
		t.Helper()
		if !(math.Abs(got-want) <= spectralTol*math.Abs(want)) {
			t.Errorf("%s = %.17g, golden %.17g", name, got, want)
		}
	}
	if len(f6.Tones) != len(goldenFig6Ratios) {
		t.Fatalf("fig6: %d tones, %d goldens", len(f6.Tones), len(goldenFig6Ratios))
	}
	for i, tone := range f6.Tones {
		within(fmt.Sprintf("fig6 ratio at %.0f MHz", tone.Freq/1e6), tone.Ratio, goldenFig6Ratios[i])
	}
	within("fig9 in-cycle ripple (sim)", f9.InCycleRippleSim, goldenFig9InCycleRippleSim)
}
