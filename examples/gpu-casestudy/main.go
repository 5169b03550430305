// GPU case study: the paper's §5 walk-through on the public API — explore
// the converter design space for a 4-SM embedded GPU, then compare the
// voltage noise of off-chip VRM vs centralized vs distributed IVR power
// delivery under a synthetic Rodinia-style workload.
//
//	go run ./examples/gpu-casestudy
package main

import (
	"context"
	"fmt"
	"log"

	"ivory"
)

func main() {
	// Table 1 parameters: 3.3 V board rail, ~1 V converter output, 20 W
	// across four SMs, 20 mm² of IVR area at 45 nm.
	spec := ivory.CaseStudySpec("45nm")

	// Step 1 — static design space exploration across distribution counts.
	tbl, err := ivory.ExploreDistribution(spec, []int{1, 2, 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tbl.Format())

	// Step 2 — build the PDS and run the workload-driven noise analysis.
	net, err := ivory.TypicalOffChipPDN(60e-9, 1.2e-3)
	if err != nil {
		log.Fatal(err)
	}
	sys := &ivory.PDSSystem{
		Cores:      4,
		TDPPerCore: 5,
		VNominal:   0.85,
		VSource:    3.3,
		Load:       ivory.LoadModel{PNominal: 5, VNominal: 0.85, LeakFraction: 0.25},
		GridR:      3.5e-3,
		GridL:      50e-12,
		Network:    net,
		Seed:       1,
	}
	res, err := ivory.Explore(spec)
	if err != nil {
		log.Fatal(err)
	}
	cand, ok := res.BestOfKind(ivory.KindSC)
	if !ok {
		log.Fatal("no SC design")
	}
	cfg := cand.SC.Config()
	cfg.VOut = sys.VNominal
	cfg.Interleave = 32
	cfg.FSwMax = 500e6
	design, err := ivory.NewSC(cfg)
	if err != nil {
		log.Fatal(err)
	}

	bench, err := ivory.GetBenchmark("CFD")
	if err != nil {
		log.Fatal(err)
	}
	T, dt := 20e-6, 1e-9
	ctx := context.Background()
	deliveries := []ivory.Delivery{{}, {IVRs: 1, SC: design}, {IVRs: 2, SC: design}, {IVRs: 4, SC: design}}
	noise := make([]*ivory.NoiseResult, len(deliveries))
	fmt.Printf("\nVoltage noise running %s for %.0f us:\n", bench.Name, T*1e6)
	for i, d := range deliveries {
		r, err := sys.Simulate(ctx, d, bench, T, dt, ivory.SimOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s %5.1f mVpp (worst droop %5.1f mV)\n", r.Config, r.NoiseVpp*1e3, r.WorstDroop*1e3)
		noise[i] = r
	}

	// Step 3 — the delivery-efficiency consequence: power breakdowns with
	// the measured guardbands. The board VRM is charged with its buck
	// model at the voltage it must produce; the IVRs with the converter's
	// efficiency at full load.
	fmt.Println("\nPower-delivery efficiency with measured guardbands:")
	mIVR, err := design.Evaluate(spec.IMax)
	if err != nil {
		log.Fatal(err)
	}
	for i, d := range deliveries {
		b, err := sys.PowerBreakdown(d, noise[i].WorstDroop, mIVR.Efficiency)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s %.1f%% (P_src %.1f W for %.0f W of compute)\n",
			b.Config, b.Efficiency*100, b.PSource, b.PCoreUseful)
	}
}
