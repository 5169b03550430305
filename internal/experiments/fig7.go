package experiments

import (
	"context"
	"fmt"
	"math"

	"ivory/internal/parallel"
	"ivory/internal/report"
	"ivory/internal/sc"
	"ivory/internal/spice"
	"ivory/internal/tech"
	"ivory/internal/topology"
)

// Fig7Point is one validation point: the analytic model against the
// switch-level simulation at an output-voltage setting.
type Fig7Point struct {
	// VOutTarget is the regulation target.
	VOutTarget float64
	// EffModel is the full analytic efficiency; EffModelCond is the
	// conduction-only efficiency (the quantity the switch-level netlist
	// captures, since its drives are ideal); EffSim is the simulated one.
	EffModel, EffModelCond, EffSim float64
	// Err is |EffModelCond - EffSim|.
	Err float64
}

// Fig7Case is one converter configuration's validation sweep.
type Fig7Case struct {
	// Name describes the configuration (ratio, node, capacitor flavour).
	Name string
	// Points are the sweep results up to the efficiency cliff.
	Points []Fig7Point
	// MaxErr is the worst conduction-efficiency disagreement.
	MaxErr float64
}

// Fig7Result reproduces the paper's Fig. 7: SC converter efficiency
// validation. The left plot's silicon measurements (32 nm SOI 3:2 and 2:1)
// and the right plot's Cadence simulations (2:1 and 3:1 at low/high
// capacitor density) are both replaced by this repo's MNA simulator — the
// documented substitution — so every case compares the analytic model
// against a switch-level simulation of the same netlist.
type Fig7Result struct {
	Cases []Fig7Case
}

// fig7Config is one validation case: a converter configuration and the
// output-voltage range its seven points sweep.
type fig7Config struct {
	name                   string
	p, q                   int
	node                   string
	kind                   tech.CapacitorKind
	vin, ctot, gtot, iload float64
	vLo, vHi               float64
}

// fig7Points is the number of output-voltage settings per case.
const fig7Points = 7

var fig7Configs = []fig7Config{
	// Left plot stand-ins: 32 nm, 3:2 and 2:1 (the reconfigurable silicon).
	{"3:2 @32nm trench", 3, 2, "32nm", tech.DeepTrench, 1.8, 30e-9, 120, 0.3, 0.90, 1.17},
	{"2:1 @32nm trench", 2, 1, "32nm", tech.DeepTrench, 1.8, 30e-9, 120, 0.3, 0.62, 0.87},
	// Right plot stand-ins: low density (MOS caps) vs high density (trench).
	{"2:1 @22nm low-density", 2, 1, "22nm", tech.MOSCap, 1.6, 10e-9, 80, 0.15, 0.55, 0.77},
	{"3:1 @22nm high-density", 3, 1, "22nm", tech.DeepTrench, 1.6, 30e-9, 80, 0.1, 0.38, 0.51},
}

// Fig7 runs all four validation cases. Their 28 points are independent
// simulations, so they run concurrently as one job list and are put back
// in sweep order.
func Fig7() (*Fig7Result, error) {
	pts := make([]*Fig7Point, len(fig7Configs)*fig7Points)
	if err := parallel.ForContext(context.Background(), len(pts), 0, func(_ context.Context, j int) error {
		var err error
		pts[j], err = fig7Point(&fig7Configs[j/fig7Points], j%fig7Points)
		return err
	}); err != nil {
		return nil, err
	}
	res := &Fig7Result{}
	for ci, cfg := range fig7Configs {
		c := Fig7Case{Name: cfg.name}
		for _, pt := range pts[ci*fig7Points : (ci+1)*fig7Points] {
			if pt == nil {
				continue
			}
			if pt.Err > c.MaxErr {
				c.MaxErr = pt.Err
			}
			c.Points = append(c.Points, *pt)
		}
		if len(c.Points) == 0 {
			return nil, fmt.Errorf("experiments: fig7 case %s produced no functional points", cfg.name)
		}
		res.Cases = append(res.Cases, c)
	}
	return res, nil
}

// fig7Point validates point k of case c. It returns nil, nil past the
// efficiency cliff, where the design is non-functional.
func fig7Point(c *fig7Config, k int) (*Fig7Point, error) {
	top, err := topology.SeriesParallel(c.p, c.q)
	if err != nil {
		return nil, err
	}
	an, err := top.Analyze()
	if err != nil {
		return nil, err
	}
	target := c.vLo + (c.vHi-c.vLo)*float64(k)/(fig7Points-1)
	d, err := sc.New(sc.Config{
		Analysis: an, Node: tech.MustLookup(c.node), CapKind: c.kind,
		VIn: c.vin, VOut: target, CTotal: c.ctot, GTotal: c.gtot, CDecap: c.ctot / 4,
		FSwMax: 2e9,
	})
	if err != nil {
		return nil, nil
	}
	m, err := d.Evaluate(c.iload)
	if err != nil {
		return nil, nil
	}
	caps, rons := d.ElementValues()
	// A stiff output rail (>> flying capacitance) matches the SSL model's
	// assumption; the paper's testbenches decouple the output the same way.
	ckt, err := spice.BuildSC(top, an, caps, rons, spice.SCOptions{
		VIn: c.vin, FSw: m.FSw, CLoad: 20 * c.ctot, ILoad: c.iload, VOutIC: m.VOut,
	})
	if err != nil {
		return nil, err
	}
	_, _, effSim, err := spice.MeasureEfficiency(ckt, m.FSw, 60, 48, spice.DC(c.iload))
	if err != nil {
		return nil, err
	}
	effCond := m.VOut / (an.Ratio * c.vin)
	return &Fig7Point{
		VOutTarget:   target,
		EffModel:     m.Efficiency,
		EffModelCond: effCond,
		EffSim:       effSim,
		Err:          math.Abs(effCond - effSim),
	}, nil
}

// fig7Row is one validation point of a named case.
type fig7Row struct {
	Case string
	Fig7Point
}

// fig7Table describes Fig 7's points for the per-case text tables and the
// flat fig7.csv.
var fig7Table = report.Table[fig7Row]{Name: "fig7", Columns: []report.Column[fig7Row]{
	{CSV: "case", Value: func(r fig7Row) any { return r.Case }},
	{Text: "Vout(V)", CSV: "vout_v", Value: func(r fig7Row) any { return r.VOutTarget }, Verb: "%.3f"},
	{Text: "model(%)", CSV: "eff_model", Value: func(r fig7Row) any { return r.EffModel }, Scale: 100, Verb: "%.1f"},
	{Text: "model-cond(%)", CSV: "eff_model_cond", Value: func(r fig7Row) any { return r.EffModelCond }, Scale: 100, Verb: "%.1f"},
	{Text: "sim(%)", CSV: "eff_sim", Value: func(r fig7Row) any { return r.EffSim }, Scale: 100, Verb: "%.1f"},
	{Text: "err(pp)", CSV: "err", Value: func(r fig7Row) any { return r.Err }, Scale: 100, Verb: "%.2f"},
}}

func (c *Fig7Case) rows() []fig7Row {
	rows := make([]fig7Row, len(c.Points))
	for i, p := range c.Points {
		rows[i] = fig7Row{c.Name, p}
	}
	return rows
}

// Format renders the validation table.
func (r *Fig7Result) Format() string {
	out := "Fig. 7 — SC efficiency validation (model vs switch-level simulation)\n"
	for _, c := range r.Cases {
		out += fmt.Sprintf("%s (max err %.2f%%)\n", c.Name, c.MaxErr*100)
		out += fig7Table.Text(c.rows())
	}
	return out
}

// WriteCSV emits fig7.csv with one row per (case, point).
func (r *Fig7Result) WriteCSV(w *report.Writer) error {
	var rows []fig7Row
	for _, c := range r.Cases {
		rows = append(rows, c.rows()...)
	}
	return fig7Table.WriteCSV(w, rows)
}
