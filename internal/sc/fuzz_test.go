package sc

import (
	"testing"

	"ivory/internal/ivr"
	"ivory/internal/tech"
)

// FuzzSCRegulationScreen holds the plan's regulation screen to the full
// sizing path over node × VIn × sweep topology × cap kind × capacitor
// share × allocation policy × load × VOut, sized the way the explorer
// sizes a configuration from its area: a configuration the screen rejects
// is rejected by newDesign plus Evaluate, and every configuration Score
// accepts passes the screen. Shares, loads and targets outside the
// explorer's range (NaN and ±Inf included) must keep both statements.
func FuzzSCRegulationScreen(f *testing.F) {
	const usable = 2e-6 // switch-plus-capacitor area (m²)
	f.Add(uint8(0), uint8(1), uint8(0), uint8(1), 0.74, false, 0.5, 0.85)
	f.Add(uint8(1), uint8(2), uint8(4), uint8(0), 0.97, true, 5.0, 0.85)
	f.Add(uint8(2), uint8(0), uint8(1), uint8(2), 0.5, false, 0.05, 0.95)
	f.Add(uint8(3), uint8(2), uint8(7), uint8(0), 0.62, true, 2.0, 0.7)
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), 0.86, false, 0.0, 0.9)
	ans := sweepAnalyses(f)
	nodes := tech.Nodes()
	vins := [...]float64{1.2, 1.8, 3.3}
	kinds := [...]tech.CapacitorKind{tech.DeepTrench, tech.MOSCap, tech.MIMCap}
	f.Fuzz(func(t *testing.T, nodeI, vinI, topoI, capI uint8, share float64, uniform bool, iLoad, vOutFrac float64) {
		node := tech.MustLookup(nodes[int(nodeI)%len(nodes)])
		vin := vins[int(vinI)%len(vins)]
		an := ans[int(topoI)%len(ans)]
		kind := kinds[int(capI)%len(kinds)]
		plan, err := PlanSwitches(an, node, vin)
		if err != nil {
			return
		}
		capOpt, err := node.Capacitor(kind)
		if err != nil {
			return
		}
		gTot, err := plan.GTotalForArea(usable * (1 - share))
		if err != nil {
			return
		}
		cfg := Config{
			Analysis: an, Node: node, CapKind: kind,
			VIn: vin, VOut: vOutFrac * an.Ratio * vin,
			CTotal:                  capOpt.DensityFPerM2 * usable * share * 0.9,
			GTotal:                  gTot,
			CDecap:                  capOpt.DensityFPerM2 * usable * share * 0.1,
			FSwMax:                  1e9,
			UniformSwitchAllocation: uniform,
		}
		regulates := plan.Regulates(cfg.VOut, cfg.CTotal, cfg.GTotal, cfg.FSwMax, iLoad, uniform)
		var d Design
		var m ivr.Metrics
		scored := plan.Score(&d, &m, &cfg, iLoad)
		if scored && !regulates {
			t.Fatalf("%s on %s at %g V, %v caps, share %g, uniform=%v, %g A, VOut %g V: Score accepts a screened-out configuration",
				an.Name, node.Name, vin, kind, share, uniform, iLoad, cfg.VOut)
		}
		if regulates {
			return
		}
		nd, err := plan.newDesign(cfg)
		if err == nil {
			_, err = nd.Evaluate(iLoad)
		}
		if err == nil {
			t.Fatalf("%s on %s at %g V, %v caps, share %g, uniform=%v, %g A, VOut %g V: screened out, but New and Evaluate accept it",
				an.Name, node.Name, vin, kind, share, uniform, iLoad, cfg.VOut)
		}
	})
}
