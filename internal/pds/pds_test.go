package pds

import (
	"testing"

	"ivory/internal/pdn"
	"ivory/internal/sc"
	"ivory/internal/tech"
	"ivory/internal/topology"
	"ivory/internal/workload"

	"ivory/internal/numeric"
)

func testSystem(t *testing.T) *System {
	t.Helper()
	net, err := pdn.TypicalOffChip(100e-9, 1.2e-3)
	if err != nil {
		t.Fatal(err)
	}
	return &System{
		Cores:      4,
		TDPPerCore: 5,
		VNominal:   0.85,
		VSource:    3.3,
		Load:       workload.LoadModel{PNominal: 5, VNominal: 0.85, LeakFraction: 0.25},
		GridR:      2.5e-3,
		GridL:      25e-12,
		Network:    net,
		Seed:       12345,
	}
}

func testDesign(t *testing.T) *sc.Design {
	t.Helper()
	top, err := topology.SeriesParallel(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	an, err := top.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// Total (chip-level) converter sized for ~24 A across 4 cores.
	d, err := sc.New(sc.Config{
		Analysis:   an,
		Node:       tech.MustLookup("45nm"),
		CapKind:    tech.DeepTrench,
		VIn:        3.3,
		VOut:       0.85,
		CTotal:     2.4e-6,
		GTotal:     4000,
		CDecap:     400e-9,
		Interleave: 32,
		FSwMax:     500e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSystemValidate(t *testing.T) {
	s := testSystem(t)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *s
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero cores must fail")
	}
	bad = *s
	bad.VSource = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("VSource below VNominal must fail")
	}
	bad = *s
	bad.Network = nil
	if err := bad.Validate(); err == nil {
		t.Error("missing network must fail")
	}
}

func TestOffChipVRMNoise(t *testing.T) {
	s := testSystem(t)
	bench, _ := workload.Get("CFD")
	res, err := s.SimulateOffChipVRM(bench, 20e-6, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != "off-chip VRM" || res.Benchmark != "CFD" {
		t.Errorf("labels wrong: %+v", res.Config)
	}
	if res.NoiseVpp <= 0 {
		t.Fatal("no noise measured")
	}
	// Plausibility: tens of mV, not volts.
	if res.NoiseVpp > 0.5 || res.NoiseVpp < 0.005 {
		t.Errorf("off-chip noise implausible: %v V", res.NoiseVpp)
	}
	if len(res.Times) != len(res.VCore) {
		t.Error("trace shape mismatch")
	}
	st := res.Stats()
	if st.N == 0 || st.Min > st.Max {
		t.Error("stats wrong")
	}
}

// The case study's central result (Fig. 11): noise shrinks monotonically
// from off-chip VRM -> centralized IVR -> 2 IVRs -> 4 IVRs.
func TestNoiseOrderingAcrossConfigs(t *testing.T) {
	s := testSystem(t)
	d := testDesign(t)
	bench, _ := workload.Get("CFD")
	T, dt := 20e-6, 1e-9

	off, err := s.SimulateOffChipVRM(bench, T, dt)
	if err != nil {
		t.Fatal(err)
	}
	var vpp []float64
	for _, n := range []int{1, 2, 4} {
		r, err := s.SimulateIVR(d, n, bench, T, dt)
		if err != nil {
			t.Fatalf("%d IVRs: %v", n, err)
		}
		vpp = append(vpp, r.NoiseVpp)
	}
	t.Logf("noise: off=%.1fmV cen=%.1fmV 2dist=%.1fmV 4dist=%.1fmV",
		off.NoiseVpp*1e3, vpp[0]*1e3, vpp[1]*1e3, vpp[2]*1e3)
	if !(off.NoiseVpp > vpp[0] && vpp[0] > vpp[1] && vpp[1] > vpp[2]) {
		t.Errorf("noise ordering violated: off=%v cen=%v two=%v four=%v",
			off.NoiseVpp, vpp[0], vpp[1], vpp[2])
	}
}

func TestSimulateIVRValidation(t *testing.T) {
	s := testSystem(t)
	d := testDesign(t)
	bench, _ := workload.Get("CFD")
	if _, err := s.SimulateIVR(d, 3, bench, 10e-6, 1e-9); err == nil {
		t.Error("3 IVRs for 4 cores must fail")
	}
	if _, err := s.SimulateIVR(d, 0, bench, 10e-6, 1e-9); err == nil {
		t.Error("zero IVRs must fail")
	}
	if _, err := s.SimulateIVR(d, 1, bench, 1e-9, 1e-9); err == nil {
		t.Error("too-short trace must fail")
	}
}

func TestPowerBreakdownOffChip(t *testing.T) {
	s := testSystem(t)
	b, err := s.PowerBreakdown(BreakdownParams{
		Config:        "off-chip VRM",
		Margin:        0.125,
		VRMEfficiency: 0.90,
		NumIVRs:       0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(b.PCoreUseful, 20, 0) {
		t.Errorf("useful power %v, want 20", b.PCoreUseful)
	}
	if b.PMargin <= 0 || b.PVRMLoss <= 0 || b.PPDNIR <= 0 || b.PGridIR <= 0 {
		t.Errorf("breakdown incomplete: %+v", b)
	}
	if b.PIVRLoss != 0 {
		t.Error("off-chip config must not have an IVR loss term")
	}
	if b.Efficiency <= 0 || b.Efficiency >= 1 {
		t.Errorf("efficiency %v out of range", b.Efficiency)
	}
	// Energy conservation: source covers everything.
	sum := b.PCoreUseful + b.PMargin + b.PGridIR + b.PIVRLoss + b.PPDNIR + b.PVRMLoss
	if diff := (b.PSource - sum) / b.PSource; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("power ladder does not sum: source %v vs parts %v", b.PSource, sum)
	}
}

// Fig. 13's conclusion: the distributed-IVR PDS beats the off-chip VRM PDS
// on delivery efficiency, driven by the smaller guardband and the PDN
// carrying current at 3.3 V.
func TestDistributedIVRBeatsOffChip(t *testing.T) {
	s := testSystem(t)
	off, err := s.PowerBreakdown(BreakdownParams{
		Config: "off-chip VRM", Margin: 0.125, VRMEfficiency: 0.90, NumIVRs: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	ivr, err := s.PowerBreakdown(BreakdownParams{
		Config: "4 distributed IVRs", Margin: 0.025,
		IVREfficiency: 0.80, VRMEfficiency: 0.97, NumIVRs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("efficiency: off-chip %.1f%%, 4 IVRs %.1f%%", off.Efficiency*100, ivr.Efficiency*100)
	if ivr.Efficiency <= off.Efficiency {
		t.Errorf("IVR PDS should win: %v vs %v", ivr.Efficiency, off.Efficiency)
	}
	gain := ivr.Efficiency - off.Efficiency
	if gain < 0.02 || gain > 0.25 {
		t.Errorf("efficiency gain %v outside the plausible band around the paper's 9.5%%", gain)
	}
}

func TestPowerBreakdownValidation(t *testing.T) {
	s := testSystem(t)
	if _, err := s.PowerBreakdown(BreakdownParams{Margin: -1, VRMEfficiency: 0.9}); err == nil {
		t.Error("negative margin must fail")
	}
	if _, err := s.PowerBreakdown(BreakdownParams{VRMEfficiency: 0}); err == nil {
		t.Error("zero VRM efficiency must fail")
	}
	if _, err := s.PowerBreakdown(BreakdownParams{VRMEfficiency: 0.9, NumIVRs: 2, IVREfficiency: 0}); err == nil {
		t.Error("zero IVR efficiency must fail")
	}
}
