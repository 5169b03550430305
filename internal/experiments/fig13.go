package experiments

import (
	"context"
	"fmt"

	"ivory/internal/core"
	"ivory/internal/parallel"
	"ivory/internal/pds"
)

// Fig13Result reproduces the paper's Fig. 13: the source-to-core power
// breakdown of every PDS configuration, combining the static converter
// efficiencies with the guardbands extracted from the dynamic noise
// analysis, and the headline delivery-efficiency improvement of the
// optimal distributed-IVR PDS over the off-chip VRM baseline.
type Fig13Result struct {
	Breakdowns []pds.Breakdown
	// Margins holds the guardband used per configuration (V).
	Margins map[string]float64
	// ImprovementPP is the delivery-efficiency gain (percentage points) of
	// the best IVR configuration over the off-chip VRM.
	ImprovementPP float64
	// BestConfig names the winning configuration.
	BestConfig string
}

// Fig13Run computes the power breakdowns. The noise analysis (Fig. 10) is
// re-run at a reduced span to extract guardbands; pass a pre-computed
// result to reuse it. ctx cancels that noise analysis and each
// margin-aware re-exploration. It fans the margin-aware IVR
// re-explorations out over opt.Workers, then charges the breakdowns in
// configuration order, so results match the serial path bit-for-bit at
// every worker count.
func Fig13Run(ctx context.Context, noise *Fig10Result, opt TransientOptions) (*Fig13Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cs, err := NewCaseSystem()
	if err != nil {
		return nil, err
	}
	if noise == nil {
		noise, err = Fig10Run(ctx, opt)
		if err != nil {
			return nil, err
		}
	}
	res := &Fig13Result{Margins: map[string]float64{}}
	// margin is a configuration's guardband: its worst droop, clamped at 0.
	margin := func(name string) float64 {
		return max(noise.DroopByConfig[name], 0)
	}
	// Phase 1: per-configuration IVR efficiency, fanned out. Each slot is
	// owned by its configuration index; the off-chip VRM has no on-chip
	// converter and keeps 0.
	convEff := make([]float64, len(noiseConfigs))
	if err := parallel.ForContext(ctx, len(noiseConfigs), opt.Workers, func(ctx context.Context, i int) error {
		nIVR := noiseConfigs[i]
		if nIVR == 0 {
			return nil
		}
		// Re-explore the IVR at its actual regulated level (nominal plus
		// this configuration's own margin): the margin-aware
		// co-optimization the paper's §5.4 describes.
		vOp := cs.System.VNominal + margin(pds.Delivery{IVRs: nIVR}.Name())
		spec := cs.Spec
		spec.VOut = vOp
		spec.IMax = cs.System.TDPPerCore * float64(cs.System.Cores) / cs.System.VNominal
		spec.Context = ctx
		expRes, err := core.Explore(spec)
		if err != nil {
			return err
		}
		cand, ok := expRes.BestOfKind(core.KindSC)
		if !ok {
			return fmt.Errorf("experiments: no SC design at V_op %.3f", vOp)
		}
		convEff[i] = cand.Metrics.Efficiency
		return nil
	}); err != nil {
		return nil, err
	}
	// Phase 2: breakdowns and aggregates, in enumeration order.
	var offEff float64
	bestEff := -1.0
	for i, nIVR := range noiseConfigs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dl := pds.Delivery{IVRs: nIVR}
		name := dl.Name()
		res.Margins[name] = margin(name)
		b, err := cs.System.PowerBreakdown(dl, res.Margins[name], convEff[i])
		if err != nil {
			return nil, err
		}
		res.Breakdowns = append(res.Breakdowns, b)
		if nIVR == 0 {
			offEff = b.Efficiency
		} else if b.Efficiency > bestEff {
			bestEff = b.Efficiency
			res.BestConfig = name
		}
	}
	res.ImprovementPP = (bestEff - offEff) * 100
	return res, nil
}

// Format renders the breakdown table.
func (r *Fig13Result) Format() string {
	rows := make([][]string, 0, len(r.Breakdowns))
	for _, b := range r.Breakdowns {
		rows = append(rows, []string{
			b.Config,
			fmt.Sprintf("%.0f", r.Margins[b.Config]*1e3),
			fmt.Sprintf("%.1f", b.PCoreUseful),
			fmt.Sprintf("%.2f", b.PMargin),
			fmt.Sprintf("%.2f", b.PGridIR),
			fmt.Sprintf("%.2f", b.PIVRLoss),
			fmt.Sprintf("%.2f", b.PPDNIR),
			fmt.Sprintf("%.2f", b.PVRMLoss),
			fmt.Sprintf("%.2f", b.PSource),
			fmt.Sprintf("%.1f", b.Efficiency*100),
		})
	}
	out := "Fig. 13 — PDS power breakdown and delivery efficiency\n"
	out += table([]string{"config", "margin(mV)", "P_core(W)", "P_margin", "P_grid", "P_IVR", "P_PDN", "P_VRM", "P_src(W)", "eff(%)"}, rows)
	out += fmt.Sprintf("Best IVR configuration: %s, +%.1f pp delivery efficiency over the off-chip VRM (paper: +9.5 pp)\n",
		r.BestConfig, r.ImprovementPP)
	return out
}
