package experiments

import (
	"fmt"

	"ivory/internal/pds"
	"ivory/internal/report"
)

// Every experiment result knows how to emit its plot-ready data. The file
// names follow the paper's figure numbering.

// WriteCSV emits fig4.csv.
func (r *Fig4Result) WriteCSV(w *report.Writer) error {
	rows := make([][]float64, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []float64{
			row.FSw, row.TSpice.Seconds(), row.TModel.Seconds(),
			row.Speedup, row.VSpice, row.VModel,
		})
	}
	return w.CSV("fig4", []string{"fsw_hz", "t_sim_s", "t_model_s", "speedup", "v_sim", "v_model"}, rows)
}

// WriteCSV emits fig6.csv.
func (r *Fig6Result) WriteCSV(w *report.Writer) error {
	rows := make([][]float64, 0, len(r.Tones))
	for i, tn := range r.Tones {
		rows = append(rows, []float64{
			tn.Freq, tn.AmpConverter, tn.AmpBareCap, tn.Ratio, r.AnalyticAdvantage[i],
		})
	}
	return w.CSV("fig6", []string{"tone_hz", "amp_converter_v", "amp_cap_v", "ratio", "analytic_advantage"}, rows)
}

// WriteCSV emits fig7.csv with one row per (case, point).
func (r *Fig7Result) WriteCSV(w *report.Writer) error {
	var rows [][]string
	for _, c := range r.Cases {
		for _, p := range c.Points {
			rows = append(rows, []string{
				c.Name,
				fmt.Sprintf("%g", p.VOutTarget),
				fmt.Sprintf("%g", p.EffModel),
				fmt.Sprintf("%g", p.EffModelCond),
				fmt.Sprintf("%g", p.EffSim),
				fmt.Sprintf("%g", p.Err),
			})
		}
	}
	return w.CSVStrings("fig7", []string{"case", "vout_v", "eff_model", "eff_model_cond", "eff_sim", "err"}, rows)
}

// WriteCSV emits fig8.csv.
func (r *Fig8Result) WriteCSV(w *report.Writer) error {
	var rows [][]string
	for _, c := range r.Cases {
		for _, p := range c.Points {
			rows = append(rows, []string{
				c.Name,
				fmt.Sprintf("%g", p.ILoad),
				fmt.Sprintf("%g", p.VOutTarget),
				fmt.Sprintf("%g", p.EffModel),
				fmt.Sprintf("%g", p.EffModelCond),
				fmt.Sprintf("%g", p.EffSim),
			})
		}
	}
	return w.CSVStrings("fig8", []string{"case", "iload_a", "vout_v", "eff_model", "eff_model_cond", "eff_sim"}, rows)
}

// WriteCSV emits fig9_waveform.csv and fig9_summary.csv.
func (r *Fig9Result) WriteCSV(w *report.Writer) error {
	rows := make([][]float64, 0, len(r.CycleTimes))
	for i := range r.CycleTimes {
		rows = append(rows, []float64{r.CycleTimes[i], r.CycleModel[i], r.CycleSim[i]})
	}
	if err := w.CSV("fig9_waveform", []string{"t_s", "v_model", "v_sim"}, rows); err != nil {
		return err
	}
	return w.CSV("fig9_summary", []string{"cycle_rmse_v", "cycle_maxerr_v", "incycle_model_v", "incycle_sim_v"},
		[][]float64{{r.CycleRMSE, r.CycleMaxErr, r.InCycleRippleModel, r.InCycleRippleSim}})
}

// WriteCSV emits fig10.csv (box stats).
func (r *Fig10Result) WriteCSV(w *report.Writer) error {
	var rows [][]string
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Benchmark, c.Config,
			fmt.Sprintf("%g", c.Stats.Min),
			fmt.Sprintf("%g", c.Stats.Q1),
			fmt.Sprintf("%g", c.Stats.Median),
			fmt.Sprintf("%g", c.Stats.Q3),
			fmt.Sprintf("%g", c.Stats.Max),
			fmt.Sprintf("%g", c.NoiseVpp),
			fmt.Sprintf("%g", c.WorstDroop),
		})
	}
	return w.CSVStrings("fig10",
		[]string{"benchmark", "config", "min", "q1", "median", "q3", "max", "vpp", "droop"}, rows)
}

// WriteCSV emits fig11.csv: the CFD waveforms, t plus one column per
// configuration the run covered.
func (r fig11Result) WriteCSV(w *report.Writer) error {
	header := []string{"t_s"}
	var configs []string
	for _, n := range r.configsOrDefault() {
		name := pds.Delivery{IVRs: n}.Name()
		configs = append(configs, name)
		header = append(header, name)
	}
	var wave [][]float64
	for k := range r.CFDTimes {
		row := []float64{r.CFDTimes[k]}
		ok := true
		for _, cfg := range configs {
			tr := r.CFDTraces[cfg]
			if k >= len(tr) {
				ok = false
				break
			}
			row = append(row, tr[k])
		}
		if ok {
			wave = append(wave, row)
		}
	}
	return w.CSV("fig11", header, wave)
}

// WriteCSV emits fig12.csv.
func (r *Fig12Result) WriteCSV(w *report.Writer) error {
	rows := make([][]float64, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []float64{p.AreaMM2, p.EffSC, p.EffBuck, p.EffLDO})
	}
	return w.CSV("fig12", []string{"area_mm2", "eff_sc", "eff_buck", "eff_ldo"}, rows)
}

// WriteCSV emits fig13.csv.
func (r *Fig13Result) WriteCSV(w *report.Writer) error {
	var rows [][]string
	for _, b := range r.Breakdowns {
		rows = append(rows, []string{
			b.Config,
			fmt.Sprintf("%g", r.Margins[b.Config]),
			fmt.Sprintf("%g", b.PCoreUseful),
			fmt.Sprintf("%g", b.PMargin),
			fmt.Sprintf("%g", b.PGridIR),
			fmt.Sprintf("%g", b.PIVRLoss),
			fmt.Sprintf("%g", b.PPDNIR),
			fmt.Sprintf("%g", b.PVRMLoss),
			fmt.Sprintf("%g", b.PSource),
			fmt.Sprintf("%g", b.Efficiency),
		})
	}
	return w.CSVStrings("fig13",
		[]string{"config", "margin_v", "p_core_w", "p_margin_w", "p_grid_w", "p_ivr_w", "p_pdn_w", "p_vrm_w", "p_source_w", "efficiency"}, rows)
}

// WriteCSV emits ablations.csv.
func (r *AblationResult) WriteCSV(w *report.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%g", row.Baseline),
			fmt.Sprintf("%g", row.Ablated),
			row.Unit,
		})
	}
	return w.CSVStrings("ablations", []string{"feature", "with", "without", "unit"}, rows)
}

// WriteCSV emits twostage.csv.
func (r *TwoStageResult) WriteCSV(w *report.Writer) error {
	var rows [][]float64
	for _, row := range r.Inner.Rows {
		feas := 0.0
		if row.Feasible {
			feas = 1
		}
		rows = append(rows, []float64{row.VMid, row.Stage1Eff, row.Stage2Eff, row.Combined, feas})
	}
	return w.CSV("twostage", []string{"vmid_v", "stage1_eff", "stage2_eff", "combined_eff", "feasible"}, rows)
}

// WriteCSV emits dvfs.csv.
func (r *DVFSResult) WriteCSV(w *report.Writer) error {
	rows := make([][]float64, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []float64{row.PeriodUS, row.EnergySavingPct, row.ResidencyPct})
	}
	return w.CSV("dvfs", []string{"period_us", "saving_pct", "residency_pct"}, rows)
}

// WriteCSV emits families.csv.
func (r *FamilyTransientsResult) WriteCSV(w *report.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Family,
			fmt.Sprintf("%g", row.WorstDroopMV),
			fmt.Sprintf("%g", row.RecoveryNS),
			fmt.Sprintf("%g", row.SteadyRippleMV),
		})
	}
	return w.CSVStrings("families", []string{"family", "droop_mv", "recovery_ns", "ripple_mvpp"}, rows)
}

// WriteCSV emits gridscale.csv.
func (r *GridScaleResult) WriteCSV(w *report.Writer) error {
	rows := make([][]float64, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []float64{float64(row.N), row.REff, row.Ratio, row.InvN})
	}
	return w.CSV("gridscale", []string{"n_ivrs", "r_eff_ohm", "ratio_vs_centralized", "inv_n"}, rows)
}

// WriteCSV emits gears.csv.
func (r *GearsResult) WriteCSV(w *report.Writer) error {
	rows := make([][]float64, 0, len(r.VOut))
	for i := range r.VOut {
		rows = append(rows, []float64{r.VOut[i], r.Envelope[i], float64(r.Gear[i])})
	}
	return w.CSV("gears", []string{"vout_v", "efficiency", "gear_index"}, rows)
}

// WriteCSV emits nodes.csv.
func (r *NodeSweepResult) WriteCSV(w *report.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		if !row.Feasible {
			continue
		}
		rows = append(rows, []string{
			row.Node, row.Kind,
			fmt.Sprintf("%g", row.Efficiency),
			fmt.Sprintf("%g", row.AreaMM2),
			fmt.Sprintf("%g", row.FSwMHz),
		})
	}
	return w.CSVStrings("nodes", []string{"node", "kind", "efficiency", "area_mm2", "fsw_mhz"}, rows)
}
