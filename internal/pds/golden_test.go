package pds

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"ivory/internal/ldo"
	"ivory/internal/tech"
	"ivory/internal/workload"
)

// goldenPDSDigest is the SHA-256 of the appendNoise/appendBreakdown records
// of TestPDSGoldenDigest. It pins every trace sample, summary statistic,
// configuration name, error text and power-ladder term of the transient
// layer, so a refactor of the delivery styles that claims unchanged output
// must leave it as it is. Regenerate it only for a change that means to
// move model output, and say so in the change description.
const goldenPDSDigest = "a3d34b6c88556389f1efae4a54b65749ec516b6a1ab74d266c91e83332917e2c"

// appendBits appends the IEEE-754 bits of each value.
func appendBits(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = fmt.Appendf(b, "|%x", math.Float64bits(v))
	}
	return b
}

// appendNoise appends the digest record of one simulation: the error text,
// or the labels, summary bits and (kept) trace bits.
func appendNoise(b []byte, nr *NoiseResult, err error) []byte {
	if err != nil {
		return fmt.Appendf(b, "err %s\n", err)
	}
	st := nr.VStats
	b = fmt.Appendf(b, "%s|%s|%d", nr.Config, nr.Benchmark, st.N)
	b = appendBits(b, st.Min, st.Max, st.Mean, st.Std, st.Q1, st.Median, st.Q3, st.WhiskerLo, st.WhiskerHi,
		nr.NoiseVpp, nr.WorstDroop)
	b = appendBits(b, nr.Times...)
	b = appendBits(b, nr.VCore...)
	return append(b, '\n')
}

// appendBreakdown appends the digest record of one power ladder.
func appendBreakdown(b []byte, bd Breakdown, err error) []byte {
	if err != nil {
		return fmt.Appendf(b, "bd err %s\n", err)
	}
	b = fmt.Appendf(b, "bd %s", bd.Config)
	b = appendBits(b, bd.PCoreUseful, bd.PMargin, bd.PGridIR, bd.PIVRLoss, bd.PPDNIR, bd.PVRMLoss, bd.PSource, bd.Efficiency)
	return append(b, '\n')
}

// goldenLDO sizes the test system's centralized digital LDO the way the
// hybrid sweep sizes one per domain.
func goldenLDO(t *testing.T, s *System, headroomV float64) *ldo.Design {
	t.Helper()
	iMax := s.TDPPerCore * float64(s.Cores) / s.VNominal
	d, err := ldo.New(ldo.Config{
		Node:       tech.MustLookup("45nm"),
		VIn:        s.VNominal + headroomV,
		VOut:       s.VNominal,
		GPass:      2 * iMax / headroomV,
		COut:       80e-9 * iMax,
		FSample:    250e6,
		Interleave: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPDSGoldenDigest runs CFD, KMN and a phase schedule through every
// delivery style — off-chip VRM, 1/2/4 IVRs, a digital LDO, and a 3-IVR
// count that cannot divide 4 cores — and charges each power ladder at the
// simulated guardband.
func TestPDSGoldenDigest(t *testing.T) {
	s := testSystem(t)
	d := testDesign(t)
	const headroomV = 0.15
	des := goldenLDO(t, s, headroomV)
	cfd, _ := workload.Get("CFD")
	kmn, _ := workload.Get("KMN")
	sched := workload.PhaseSchedule{Name: "golden-phases", Phases: []workload.Phase{
		{Benchmark: "KMN", Duration: 2e-6},
		{Benchmark: "CFD", Duration: 1.5e-6, Scale: 1.1},
		{Benchmark: "BACKP", Duration: 1.5e-6, Scale: 0.6},
	}}
	const T, dt = 6e-6, 1e-9
	ctx := context.Background()
	opt := SimOptions{KeepTrace: true}
	iLoad := s.TDPPerCore * float64(s.Cores) / s.VNominal
	margin := func(nr *NoiseResult) float64 { return math.Max(nr.WorstDroop, 0) }

	h := sha256.New()
	var rec []byte
	for _, src := range []workload.Source{cfd, kmn, sched} {
		rec = fmt.Appendf(rec[:0], "source %s\n", src.TraceName())

		deliveries := []Delivery{{}, {IVRs: 1, SC: d}, {IVRs: 2, SC: d}, {IVRs: 3, SC: d}, {IVRs: 4, SC: d},
			{LDO: des, HeadroomV: headroomV}}
		for _, dl := range deliveries {
			nr, err := s.Simulate(ctx, dl, src, T, dt, opt)
			rec = appendNoise(rec, nr, err)
			if err != nil {
				continue
			}
			_, conv, err := dl.Regulator(iLoad)
			if err != nil {
				t.Fatal(err)
			}
			bd, err := s.PowerBreakdown(dl, margin(nr), conv)
			rec = appendBreakdown(rec, bd, err)
		}
		_, _ = h.Write(rec) // a hash never fails to write
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenPDSDigest {
		t.Errorf("pds digest %s, want %s: a trace, summary, name, error text or ladder term changed", got, goldenPDSDigest)
	}
}
