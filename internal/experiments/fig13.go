package experiments

import (
	"context"
	"fmt"

	"ivory/internal/buck"
	"ivory/internal/core"
	"ivory/internal/parallel"
	"ivory/internal/pds"
	"ivory/internal/tech"
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

// vrmEfficiency evaluates an off-chip VRM (surface-mount buck at low
// frequency) producing vOut at power pOut from the 3.3 V board rail, using
// the same buck model as on-chip designs — the commensurate-modeling
// principle of the paper.
func vrmEfficiency(vIn, vOut, pOut float64) (float64, error) {
	iLoad := pOut / vOut
	cfg := buck.Config{
		Node:       tech.MustLookup("130nm"), // board-class silicon
		Inductor:   tech.SurfaceMount,
		OutCap:     tech.MIMCap,
		VIn:        vIn,
		VOut:       vOut,
		L:          300e-9,
		COut:       20e-6,
		FSw:        2e6,
		GHigh:      50,
		GLow:       80,
		Interleave: 4,
	}
	d, err := buck.New(cfg)
	if err != nil {
		return 0, err
	}
	d, err = d.OptimizeConductances(iLoad)
	if err != nil {
		return 0, err
	}
	m, err := d.Evaluate(iLoad)
	if err != nil {
		return 0, err
	}
	// Board-level realities the on-chip model does not include: the input
	// filter network and sense/trace resistance between the VRM and the
	// board plane (~1.2 mOhm at the output current), plus the analog
	// controller's quiescent power.
	rTrace := 1.2e-3
	pTrace := iLoad * iLoad * rTrace
	pCtl := 0.25
	loss := m.Loss.Total() + pTrace + pCtl
	return m.POut / (m.POut + loss), nil
}

// Fig13Run computes the power breakdowns. The noise analysis (Fig. 10) is
// re-run at a reduced span to extract guardbands; pass a pre-computed
// result to reuse it. ctx cancels that noise analysis and each
// margin-aware re-exploration. It fans the per-configuration work — the
// off-chip VRM sizing and each margin-aware IVR re-exploration — out over
// opt.Workers, then merges breakdowns in configuration order, so results
// match the serial path bit-for-bit at every worker count.
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
	pCore := cs.System.TDPPerCore * float64(cs.System.Cores)
	// Phase 1: per-configuration conversion parameters, fanned out. Each
	// slot is owned by its configuration index; margins are recorded in the
	// merge below to keep map writes single-goroutine.
	params := make([]pds.BreakdownParams, len(noiseConfigs))
	errs := make([]error, len(noiseConfigs))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ferr := parallel.ForContext(runCtx, len(noiseConfigs), opt.Workers, func(i int) {
		nIVR := noiseConfigs[i]
		name := configName(nIVR)
		margin := noise.DroopByConfig[name]
		if margin < 0 {
			margin = 0
		}
		if nIVR == 0 {
			// The board VRM must produce the core voltage plus margin.
			vrmEff, err := vrmEfficiency(cs.System.VSource, cs.System.VNominal+margin, pCore)
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			params[i] = pds.BreakdownParams{
				Config: name, Margin: margin,
				VRMEfficiency: vrmEff, NumIVRs: 0,
			}
			return
		}
		// Re-explore the IVR at its actual regulated level (nominal plus
		// this configuration's own margin): the margin-aware
		// co-optimization the paper's §5.4 describes.
		vOp := cs.System.VNominal + margin
		spec := cs.Spec
		spec.VOut = vOp
		spec.IMax = cs.System.TDPPerCore * float64(cs.System.Cores) / cs.System.VNominal
		spec.Context = runCtx
		expRes, err := core.Explore(spec)
		if err != nil {
			errs[i] = err
			cancel()
			return
		}
		cand, ok := expRes.BestOfKind(core.KindSC)
		if !ok {
			errs[i] = fmt.Errorf("experiments: no SC design at V_op %.3f", vOp)
			cancel()
			return
		}
		params[i] = pds.BreakdownParams{
			Config: name, Margin: margin,
			IVREfficiency: cand.Metrics.Efficiency,
			// The board rail reaches the IVRs through the PDN with only
			// light conditioning (3.3 V pass-through).
			VRMEfficiency: 0.97,
			NumIVRs:       nIVR,
		}
	})
	if err := firstCellError(errs); err != nil {
		return nil, err
	}
	if ferr != nil {
		return nil, ferr
	}
	// Phase 2: breakdowns and aggregates, in enumeration order.
	var offEff float64
	bestEff := -1.0
	for i, nIVR := range noiseConfigs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		name := configName(nIVR)
		res.Margins[name] = params[i].Margin
		b, err := cs.System.PowerBreakdown(params[i])
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
