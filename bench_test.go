package ivory

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates the corresponding experiment from scratch, so `go test
// -bench=.` both times the pipeline and re-checks that every experiment
// still completes. Custom metrics surface the headline numbers
// (speedup, efficiency, noise, improvement) in the bench output.

import (
	"context"
	"testing"

	"ivory/internal/experiments"
	"ivory/internal/spice"
	"ivory/internal/topology"
)

func BenchmarkFig4SpeedupSweep(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(2e-6)
		if err != nil {
			b.Fatal(err)
		}
		last = r.Rows[len(r.Rows)-1].Speedup
	}
	b.ReportMetric(last, "peak-speedup-x")
}

func BenchmarkFig6RegulationSpectrum(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Tones[0].Ratio
	}
	b.ReportMetric(ratio, "subfsw-conv/cap")
}

func BenchmarkFig7SCValidation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, c := range r.Cases {
			if c.MaxErr > worst {
				worst = c.MaxErr
			}
		}
	}
	b.ReportMetric(worst*100, "max-err-pp")
}

func BenchmarkFig8BuckValidation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, c := range r.Cases {
			if c.MaxErr > worst {
				worst = c.MaxErr
			}
		}
	}
	b.ReportMetric(worst*100, "max-err-pp")
}

func BenchmarkFig9TransientValidation(b *testing.B) {
	var rmse float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		rmse = r.CycleRMSE
	}
	b.ReportMetric(rmse*1e3, "cycle-rmse-mV")
}

func BenchmarkTable2Exploration(b *testing.B) {
	var scEff float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table2Context(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range t.Rows {
			if row.Kind.String() == "SC" {
				for j, ok := range row.Feasible {
					if ok {
						scEff = row.Efficiency[j]
						break
					}
					_ = j
				}
			}
		}
	}
	b.ReportMetric(scEff*100, "sc-eff-pct")
}

func BenchmarkFig10NoiseAnalysis(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10Run(context.Background(), experiments.TransientOptions{T: 10e-6, Dt: 1e-9})
		if err != nil {
			b.Fatal(err)
		}
		worst = r.NoiseByConfig["off-chip VRM"]
	}
	b.ReportMetric(worst*1e3, "offchip-noise-mV")
}

func BenchmarkFig11CFDWaveforms(b *testing.B) {
	var four float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10Run(context.Background(), experiments.TransientOptions{T: 10e-6, Dt: 1e-9})
		if err != nil {
			b.Fatal(err)
		}
		four = r.NoiseByConfig["4 distributed IVRs"]
		_ = r.FormatFig11()
	}
	b.ReportMetric(four*1e3, "4ivr-noise-mV")
}

func BenchmarkFig12AreaTradeoff(b *testing.B) {
	var cross float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12Run(context.Background(), experiments.TransientOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cross = r.CrossoverMM2
	}
	b.ReportMetric(cross, "sc-beats-buck-mm2")
}

func BenchmarkFig13PowerBreakdown(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		noise, err := experiments.Fig10Run(context.Background(), experiments.TransientOptions{T: 10e-6, Dt: 1e-9})
		if err != nil {
			b.Fatal(err)
		}
		r, err := experiments.Fig13Run(context.Background(), noise, experiments.TransientOptions{})
		if err != nil {
			b.Fatal(err)
		}
		gain = r.ImprovementPP
	}
	b.ReportMetric(gain, "ivr-gain-pp")
}

// Extension benches: the ablation studies and future-work explorations.

func BenchmarkAblations(b *testing.B) {
	var recyclingGain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationsRun(context.Background(), experiments.TransientOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Name == "bottom-plate charge recycling" {
				recyclingGain = row.Baseline - row.Ablated
			}
		}
	}
	b.ReportMetric(recyclingGain, "recycling-gain-pp")
}

func BenchmarkTwoStageExploration(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TwoStageContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if r.Inner.Best != nil {
			best = r.Inner.Best.Combined
		}
	}
	b.ReportMetric(best*100, "best-twostage-pct")
}

func BenchmarkGearEnvelope(b *testing.B) {
	var shift float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Gears()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.ShiftV) > 0 {
			shift = r.ShiftV[0]
		}
	}
	b.ReportMetric(shift, "gear-shift-V")
}

func BenchmarkGridScale(b *testing.B) {
	var ratio4 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.GridScaleRun(context.Background(), experiments.TransientOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ratio4 = r.Rows[2].Ratio
	}
	b.ReportMetric(ratio4, "4ivr-grid-ratio")
}

func BenchmarkFamilyTransients(b *testing.B) {
	var scDroop float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.FamilyTransients()
		if err != nil {
			b.Fatal(err)
		}
		scDroop = r.Rows[0].WorstDroopMV
	}
	b.ReportMetric(scDroop, "sc-droop-mV")
}

func BenchmarkFastDVFS(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.FastDVFSContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		saving = r.Rows[0].EnergySavingPct
	}
	b.ReportMetric(saving, "subus-saving-pct")
}

func BenchmarkHybridSweep(b *testing.B) {
	var bestEff float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.HybridRun(context.Background(), experiments.TransientOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Candidates) > 0 {
			bestEff = r.Candidates[0].Efficiency
		}
	}
	b.ReportMetric(bestEff*100, "best-hybrid-eff-pct")
}

// Component-level micro-benchmarks: the building blocks whose speed makes
// the 10^3-10^5x modeling advantage possible.

func BenchmarkStaticSCEvaluate(b *testing.B) {
	spec := CaseStudySpec("45nm")
	res, err := Explore(spec)
	if err != nil {
		b.Fatal(err)
	}
	c, ok := res.BestOfKind(KindSC)
	if !ok {
		b.Fatal("no SC design")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SC.Evaluate(spec.IMax); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExploreFullSpace(b *testing.B) {
	spec := CaseStudySpec("45nm")
	for i := 0; i < b.N; i++ {
		if _, err := Explore(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreAdaptive times the pruned search on the same case-study
// spec as BenchmarkExploreFullSpace, so the pair quantifies the adaptive
// speedup directly. The eval-ratio metric is the exhaustive candidate count
// over the number the adaptive run actually sized (the equivalence tests in
// internal/core pin that both modes return the same ranked winners).
func BenchmarkExploreAdaptive(b *testing.B) {
	spec := CaseStudySpec("45nm")
	spec.Search = SearchAdaptive
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := Explore(spec)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(res.Stats.Evaluated()+res.Stats.Pruned()) / float64(res.Stats.Evaluated())
	}
	b.ReportMetric(ratio, "eval-ratio-x")
}

// BenchmarkExploreSerial/Parallel time the same full-space exploration with
// one worker versus one per CPU. The outputs are bit-identical (enforced by
// TestExploreDeterministicAcrossWorkers); only wall-clock differs.

func BenchmarkExploreSerial(b *testing.B) {
	spec := CaseStudySpec("45nm")
	spec.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Explore(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExploreParallel(b *testing.B) {
	spec := CaseStudySpec("45nm")
	spec.Workers = 0 // one worker per CPU
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Explore(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlaceIVRs times the greedy placement on the case-study mesh at
// the hardest distribution count of the grid-scaling experiment.
func BenchmarkPlaceIVRs(b *testing.B) {
	m, err := NewGridMesh(24, 24, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	cores := m.QuadCores()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PlaceIVRsContext(context.Background(), 8, cores); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologyAnalyze(b *testing.B) {
	top, err := Ladder(7, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := top.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicSCMicrosecond(b *testing.B) {
	spec := CaseStudySpec("45nm")
	res, err := Explore(spec)
	if err != nil {
		b.Fatal(err)
	}
	c, _ := res.BestOfKind(KindSC)
	params, err := SCDynamicParams(c.SC, spec.IMax)
	if err != nil {
		b.Fatal(err)
	}
	sim := &SCSimulator{P: params}
	dt := 1 / (params.FClk * float64(maxi(params.Interleave, 1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(ConstantSignal(spec.IMax/2), ConstantSignal(spec.VOut), 1e-6, dt); err != nil {
			b.Fatal(err)
		}
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func BenchmarkVariationStudy(b *testing.B) {
	var std float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.VariationContext(context.Background(), 100, 0.10)
		if err != nil {
			b.Fatal(err)
		}
		std = r.Stats.Std
	}
	b.ReportMetric(std*100, "eff-sigma-pp")
}

func BenchmarkNodeSweep(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.NodeSweepContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Feasible && row.Efficiency > best {
				best = row.Efficiency
			}
		}
	}
	b.ReportMetric(best*100, "best-node-eff-pct")
}

// --- MNA kernel benchmarks (spice transient + AC) ---------------------------
//
// BenchmarkTransient and BenchmarkAC time the converter-level MNA simulator
// on the two committed netlist families (synchronous buck, 2:1
// series-parallel SC). They are the gate for the structure-aware kernel
// work: the transient loop must stay allocation-free per step and the AC
// sweep must reuse one symbolic factorization across frequencies.

func benchBuckCircuit(b *testing.B) *spice.Circuit {
	b.Helper()
	ckt, err := spice.BuildBuck(spice.BuckOptions{
		VIn: 3.3, Duty: 0.4, FSw: 20e6,
		L: 100e-9, RL: 0.05, COut: 1e-6,
		RHigh: 0.05, RLow: 0.05,
		ILoad: 1.0,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ckt
}

func benchSC21Circuit(b *testing.B) *spice.Circuit {
	b.Helper()
	top, err := topology.SeriesParallel(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	an, err := top.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	ctot, gtot := 10e-9, 100.0
	caps := make([]float64, an.NumCaps)
	for i, m := range an.CapMultipliers {
		caps[i] = ctot * m / an.SumAC
	}
	rons := make([]float64, an.NumSwitches)
	for i, m := range an.SwitchMultipliers {
		rons[i] = an.SumAR / (gtot * m)
	}
	ckt, err := spice.BuildSC(top, an, caps, rons, spice.SCOptions{
		VIn: 2.0, FSw: 50e6, CLoad: 20e-9, ILoad: 0.2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ckt
}

func BenchmarkTransient(b *testing.B) {
	run := func(fsw float64, build func(*testing.B) *spice.Circuit) func(*testing.B) {
		return func(b *testing.B) {
			h := 1 / (fsw * 64)
			T := 40 / fsw
			var steps int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ckt := build(b)
				res, err := ckt.Tran(h, T)
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
			b.ReportMetric(float64(steps), "steps")
		}
	}
	b.Run("buck", run(20e6, benchBuckCircuit))
	b.Run("sc21", run(50e6, benchSC21Circuit))
}
