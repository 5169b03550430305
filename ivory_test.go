package ivory

import (
	"context"
	"math"
	"testing"

	"ivory/internal/numeric"
)

// The façade re-exports everything a downstream user needs; exercise the
// whole public surface end to end.

func TestPublicExploreFlow(t *testing.T) {
	spec := Spec{NodeName: "32nm", VIn: 1.8, VOut: 0.9, IMax: 1.5, AreaMax: 3e-6}
	res, err := Explore(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Metrics.Efficiency <= 0 {
		t.Fatal("no best candidate")
	}
	for _, k := range []Kind{KindSC, KindBuck, KindLDO} {
		if _, ok := res.BestOfKind(k); !ok {
			t.Errorf("missing %v candidate", k)
		}
	}
}

func TestPublicTechDatabase(t *testing.T) {
	if len(TechNodes()) < 8 {
		t.Fatal("missing builtin nodes")
	}
	n, err := LookupNode("45nm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Capacitor(DeepTrench); err != nil {
		t.Error(err)
	}
	if _, err := n.Inductor(IntegratedThinFilm); err != nil {
		t.Error(err)
	}
	if _, err := n.Capacitor(MOSCap); err != nil {
		t.Error(err)
	}
	if _, err := n.Capacitor(MIMCap); err != nil {
		t.Error(err)
	}
	if _, err := n.Inductor(SurfaceMount); err != nil {
		t.Error(err)
	}
	custom := *n
	custom.Name = "my-node"
	if err := AddTechNode(&custom); err != nil {
		t.Error(err)
	}
	if _, err := LookupNode("my-node"); err != nil {
		t.Error(err)
	}
}

func TestPublicTopologies(t *testing.T) {
	for _, mk := range []func() (*Topology, error){
		func() (*Topology, error) { return SeriesParallel(3, 1) },
		func() (*Topology, error) { return Ladder(5, 2) },
		func() (*Topology, error) { return Dickson(3) },
		func() (*Topology, error) { return Doubler(2) },
		func() (*Topology, error) { return Fibonacci(2) },
	} {
		top, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		an, err := top.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if an.Ratio <= 0 || an.Ratio >= 1 {
			t.Errorf("%s: ratio %v", an.Name, an.Ratio)
		}
	}
	// Build the classic 2:1 by hand through the public builder and check
	// the solver recovers its ratio.
	b := NewTopologyBuilder("user 2:1")
	p := b.NewNode()
	nn := b.NewNode()
	b.AddCap(p, nn, "C1")
	b.AddSwitch(VinNode, p, Phi1, "s_in")
	b.AddSwitch(nn, VoutNode, Phi1, "s_mid")
	b.AddSwitch(p, VoutNode, Phi2, "s_top")
	b.AddSwitch(nn, GndNode, Phi2, "s_bot")
	userAn, err := b.Build().Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(userAn.Ratio-0.5) > 1e-6 {
		t.Errorf("user topology ratio %v", userAn.Ratio)
	}
	// Or supply charge-multiplier vectors directly:
	an, err := CustomTopology("user 2:1 vectors", 0.5, []float64{0.5}, []float64{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(an.SumAR-2.0) > 1e-12 {
		t.Error("custom SumAR wrong")
	}
}

func TestPublicConverterModels(t *testing.T) {
	node, err := LookupNode("45nm")
	if err != nil {
		t.Fatal(err)
	}
	top, _ := SeriesParallel(2, 1)
	an, _ := top.Analyze()
	scd, err := NewSC(SCConfig{
		Analysis: an, Node: node, CapKind: DeepTrench,
		VIn: 1.8, VOut: 0.8, CTotal: 40e-9, GTotal: 120, CDecap: 10e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := scd.Evaluate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Efficiency <= 0.4 {
		t.Errorf("SC efficiency %v", m.Efficiency)
	}
	bkd, err := NewBuck(BuckConfig{
		Node: node, Inductor: IntegratedThinFilm, OutCap: DeepTrench,
		VIn: 1.8, VOut: 0.9, L: 8e-9, COut: 50e-9, FSw: 100e6,
		GHigh: 5, GLow: 8, Interleave: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bkd.Evaluate(1.0); err != nil {
		t.Fatal(err)
	}
	ld, err := NewLDO(LDOConfig{Node: node, VIn: 1.2, VOut: 0.9, GPass: 10, COut: 10e-9, FSample: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ld.Evaluate(0.5); err != nil {
		t.Fatal(err)
	}
}

func TestPublicDynamicAndSpice(t *testing.T) {
	node, _ := LookupNode("45nm")
	top, _ := SeriesParallel(2, 1)
	an, _ := top.Analyze()
	scd, err := NewSC(SCConfig{
		Analysis: an, Node: node, CapKind: DeepTrench,
		VIn: 1.8, VOut: 0.8, CTotal: 40e-9, GTotal: 120, CDecap: 10e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	params, err := SCDynamicParams(scd, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	sim := &SCSimulator{P: params}
	dt := 1 / params.FClk
	tr, err := sim.Run(StepSignal(0.1, 0.5, 1e-6), ConstantSignal(0.8), 3e-6, dt)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PeakToPeak() <= 0 {
		t.Error("no dynamics recorded")
	}
	// And the circuit-level baseline through the façade.
	caps, rons := scd.ElementValues()
	ckt, err := BuildSCNetlist(top, an, caps, rons, SCNetlistOptions{
		VIn: 1.8, FSw: 50e6, CLoad: 100e-9, ILoad: 0.3, VOutIC: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ckt.Tran(1/(50e6*64), 20/50e6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Avg("vout", 0.5) <= 0 {
		t.Error("netlist simulation produced nothing")
	}
}

func TestPublicPDSComposition(t *testing.T) {
	net, err := TypicalOffChipPDN(60e-9, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	sys := &PDSSystem{
		Cores: 4, TDPPerCore: 5, VNominal: 0.85, VSource: 3.3,
		Load:  LoadModel{PNominal: 5, VNominal: 0.85, LeakFraction: 0.25},
		GridR: 3e-3, GridL: 30e-12, Network: net, Seed: 7,
	}
	bench, err := GetBenchmark("HOTSP")
	if err != nil {
		t.Fatal(err)
	}
	if len(Benchmarks()) != 7 {
		t.Error("benchmark list wrong")
	}
	nr, err := sys.Simulate(context.Background(), Delivery{}, bench, 5e-6, 1e-9, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nr.NoiseVpp <= 0 {
		t.Error("no noise measured")
	}
	b, err := sys.PowerBreakdown(Delivery{}, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Efficiency <= 0 || b.Efficiency >= 1 {
		t.Error("breakdown efficiency out of range")
	}
}

func TestCaseStudySpecShape(t *testing.T) {
	s := CaseStudySpec("45nm")
	if !numeric.ApproxEqual(s.VIn, 3.3, 0) || !numeric.ApproxEqual(s.VOut, 1.0, 0) || !numeric.ApproxEqual(s.AreaMax, 20e-6, 0) {
		t.Errorf("case study spec wrong: %+v", s)
	}
}
