package experiments

import (
	"context"
	"fmt"
	"math"

	"ivory/internal/buck"
	"ivory/internal/parallel"
	"ivory/internal/spice"
	"ivory/internal/tech"
)

// Fig8Point is one buck validation point.
type Fig8Point struct {
	// ILoad is the load current (A); VOutTarget the regulation target.
	ILoad, VOutTarget float64
	// EffModel is the analytic efficiency; EffModelCond the
	// conduction-only part (what the ideal-drive netlist captures);
	// EffSim the simulated efficiency; VSim the simulated average output.
	EffModel, EffModelCond, EffSim, VSim float64
	// Err is |EffModelCond - EffSim|.
	Err float64
}

// Fig8Case is one buck configuration's sweep.
type Fig8Case struct {
	Name   string
	Points []Fig8Point
	MaxErr float64
}

// Fig8Result reproduces the paper's Fig. 8: buck converter efficiency
// validation. The measured 2.5-D interposer-inductor converter (45 nm SOI,
// 1/3/4 A) and the Cadence-simulated design (1/2 A) are both replaced by
// switch-level MNA simulations of the same element values — the documented
// substitution.
type Fig8Result struct {
	Cases []Fig8Case
}

// fig8Config is one buck validation case and the loads it is run at.
type fig8Config struct {
	name, node        string
	vin, vout, l, fsw float64
	phases            int
	loads             []float64
}

var fig8Configs = []fig8Config{
	// 2.5-D interposer-class converter at 45 nm, 1/3/4 A.
	{"2.5D buck @45nm", "45nm", 1.8, 0.9, 5e-9, 100e6, 2, []float64{1, 3, 4}},
	// Simulated design, 1/2 A.
	{"buck @22nm", "22nm", 1.5, 0.8, 4e-9, 150e6, 1, []float64{1, 2}},
}

// Fig8 runs both validation cases. Their (case, load) points are
// independent simulations, so they run concurrently and are put back in
// sweep order.
func Fig8() (*Fig8Result, error) {
	type job struct {
		c     *fig8Config
		iLoad float64
	}
	var jobs []job
	for i := range fig8Configs {
		for _, iLoad := range fig8Configs[i].loads {
			jobs = append(jobs, job{&fig8Configs[i], iLoad})
		}
	}
	pts := make([]*Fig8Point, len(jobs))
	if err := parallel.ForContext(context.Background(), len(jobs), 0, func(_ context.Context, j int) error {
		var err error
		pts[j], err = fig8Point(jobs[j].c, jobs[j].iLoad)
		return err
	}); err != nil {
		return nil, err
	}
	res := &Fig8Result{}
	for _, cfg := range fig8Configs {
		c := Fig8Case{Name: cfg.name}
		for _, pt := range pts[:len(cfg.loads)] {
			if pt == nil {
				continue
			}
			if pt.Err > c.MaxErr {
				c.MaxErr = pt.Err
			}
			c.Points = append(c.Points, *pt)
		}
		pts = pts[len(cfg.loads):]
		if len(c.Points) == 0 {
			return nil, fmt.Errorf("experiments: fig8 case %s produced no points", cfg.name)
		}
		res.Cases = append(res.Cases, c)
	}
	return res, nil
}

// fig8Point validates case c at load iLoad. It returns nil, nil outside
// the feasible load range.
func fig8Point(c *fig8Config, iLoad float64) (*Fig8Point, error) {
	bd, err := buck.New(buck.Config{
		Node:     tech.MustLookup(c.node),
		Inductor: tech.IntegratedThinFilm,
		OutCap:   tech.DeepTrench,
		VIn:      c.vin, VOut: c.vout,
		L: c.l, COut: 200e-9, FSw: c.fsw,
		GHigh: 5, GLow: 8, Interleave: c.phases,
	})
	if err != nil {
		return nil, err
	}
	bd, err = bd.OptimizeConductances(iLoad)
	if err != nil {
		return nil, err
	}
	m, err := bd.Evaluate(iLoad)
	if err != nil {
		return nil, nil
	}
	// Switch-level testbench of a single phase carrying its share.
	bcfg := bd.Config()
	iPh := iLoad / float64(c.phases)
	ind, err := tech.MustLookup(c.node).Inductor(tech.IntegratedThinFilm)
	if err != nil {
		return nil, err
	}
	ckt, err := spice.BuildBuck(spice.BuckOptions{
		VIn: c.vin, Duty: bd.Duty(iLoad), FSw: c.fsw,
		L: ind.LEff(bcfg.L, c.fsw), RL: ind.Resistance(bcfg.L, c.fsw),
		COut:  bcfg.COut / float64(c.phases),
		RHigh: 1 / bcfg.GHigh, RLow: 1 / bcfg.GLow,
		ILoad: iPh,
	})
	if err != nil {
		return nil, err
	}
	_, pout, effSim, err := spice.MeasureEfficiency(ckt, c.fsw, 120, 48, spice.DC(iPh))
	if err != nil {
		return nil, err
	}
	// Conduction-only analytic efficiency: output power over output power
	// plus conduction + magnetic losses.
	pc := m.Loss.Conduction + m.Loss.Magnetic
	effCond := m.POut / (m.POut + pc)
	return &Fig8Point{
		ILoad: iLoad, VOutTarget: c.vout,
		EffModel: m.Efficiency, EffModelCond: effCond,
		EffSim: effSim, VSim: pout / iPh,
		Err: math.Abs(effCond - effSim),
	}, nil
}

// Format renders the validation table.
func (r *Fig8Result) Format() string {
	out := "Fig. 8 — buck efficiency validation (model vs switch-level simulation)\n"
	for _, c := range r.Cases {
		rows := make([][]string, 0, len(c.Points))
		for _, p := range c.Points {
			rows = append(rows, []string{
				fmt.Sprintf("%.1f", p.ILoad),
				fmt.Sprintf("%.2f", p.VOutTarget),
				fmt.Sprintf("%.1f", p.EffModel*100),
				fmt.Sprintf("%.1f", p.EffModelCond*100),
				fmt.Sprintf("%.1f", p.EffSim*100),
				fmt.Sprintf("%.3f", p.VSim),
				fmt.Sprintf("%.2f", p.Err*100),
			})
		}
		out += fmt.Sprintf("%s (max err %.2f%%)\n", c.Name, c.MaxErr*100)
		out += table([]string{"I(A)", "Vout(V)", "model(%)", "model-cond(%)", "sim(%)", "V_sim", "err(pp)"}, rows)
	}
	return out
}
