package experiments

import (
	"context"
	"fmt"
	"time"

	"ivory/internal/dynamic"
	"ivory/internal/parallel"
	"ivory/internal/spice"
)

// Fig4Row is one frequency point of the speedup experiment.
type Fig4Row struct {
	// FSw is the converter switching frequency (Hz).
	FSw float64
	// TSpice and TModel are wall-clock runtimes of the circuit simulator
	// and the cycle-by-cycle + in-cycle model over the same simulated span.
	TSpice, TModel time.Duration
	// Speedup is TSpice / TModel.
	Speedup float64
	// VSpice and VModel are the settled output voltages, demonstrating
	// that the fast model tracks the simulator.
	VSpice, VModel float64
}

// Fig4Result reproduces the paper's Fig. 4: Ivory model speedup over SPICE
// as a function of switching frequency. The spans are chosen so the SPICE
// baseline resolves every switching cycle (64 points per cycle) while the
// model integrates the same interval — exactly the trade the paper
// quantifies at 10^3-10^5x.
type Fig4Result struct {
	Rows []Fig4Row
}

// Fig4 runs the speedup sweep over a fixed simulated span. The circuit
// simulator must resolve every switching cycle (64 points each), so its
// cost grows with f_sw; the combined model's in-cycle step is set by the
// noise band it needs to capture (~2 ns), independent of f_sw — which is
// why the paper's speedup climbs with switching frequency. spanSeconds
// controls the simulated interval (default 5 µs when <= 0).
//
// The rows run concurrently, one per CPU, highest frequency first (the
// 500 MHz row alone is over half the work). Within a row both simulations
// run one after the other on the row's goroutine, so each of TSpice and
// TModel times exactly one single-threaded simulation. The circuit
// simulator records only the output voltage, as a SPICE .save card would.
//
// Note on absolute numbers: the baseline here is this repo's lean MNA
// simulator (no device models, no Newton iterations); commercial SPICE on
// transistor-level netlists costs orders of magnitude more per step, which
// is where the paper's 10^3-10^5x range comes from.
func Fig4(spanSeconds float64) (*Fig4Result, error) {
	if spanSeconds <= 0 {
		spanSeconds = 5e-6
	}
	fsws := []float64{10e6, 20e6, 50e6, 100e6, 200e6, 500e6}
	rows := make([]Fig4Row, len(fsws))
	if err := parallel.ForContext(context.Background(), len(fsws), 0, func(_ context.Context, j int) error {
		i := len(fsws) - 1 - j
		var err error
		rows[i], err = fig4Row(fsws[i], spanSeconds)
		return err
	}); err != nil {
		return nil, err
	}
	return &Fig4Result{Rows: rows}, nil
}

// fig4Row simulates the reference converter at one switching frequency
// with the circuit simulator and with the fast model, timing each.
func fig4Row(fsw, T float64) (Fig4Row, error) {
	iLoad := 0.3
	vin := 1.8
	d, top, an, err := mustSC(20e-9, 150, 0.8, 2e9)
	if err != nil {
		return Fig4Row{}, err
	}
	caps, rons := d.ElementValues()
	vPred := an.Ratio*vin - iLoad*d.ROut(fsw)
	ckt, err := spice.BuildSC(top, an, caps, rons, spice.SCOptions{
		VIn: vin, FSw: fsw, CLoad: 400e-9, ILoad: iLoad, VOutIC: vPred,
	})
	if err != nil {
		return Fig4Row{}, err
	}
	// The row reads only vout; saving just that waveform keeps a 500 MHz
	// row at two sample columns instead of six.
	ckt.Save("vout")
	h := 1 / (64 * fsw)

	t0 := time.Now()
	sres, err := ckt.Tran(h, T)
	if err != nil {
		return Fig4Row{}, err
	}
	tSpice := time.Since(t0)
	vSpice := sres.Avg("vout", 0.25)

	// Static/dynamic model prediction of the settled output.
	vModel := vPred

	params := dynamic.SCFromDesign(d)
	params.FClk = fsw
	params.COut = 400e-9 + 10e-9
	sim := &dynamic.SCSimulator{P: params}
	dt := 2e-9
	if tick := 1 / fsw; dt > tick {
		dt = tick
	}
	t0 = time.Now()
	if _, err := sim.Run(dynamic.Constant(iLoad), dynamic.Constant(vModel), T, dt); err != nil {
		return Fig4Row{}, err
	}
	tModel := time.Since(t0)

	return Fig4Row{
		FSw: fsw, TSpice: tSpice, TModel: tModel,
		Speedup: float64(tSpice) / float64(tModel), VSpice: vSpice, VModel: vModel,
	}, nil
}

// Format renders the figure data.
func (r *Fig4Result) Format() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", row.FSw/1e6),
			row.TSpice.String(),
			row.TModel.String(),
			fmt.Sprintf("%.0fx", row.Speedup),
			fmt.Sprintf("%.4f", row.VSpice),
			fmt.Sprintf("%.4f", row.VModel),
		})
	}
	return "Fig. 4 — Ivory model speedup vs circuit simulation\n" +
		table([]string{"fsw(MHz)", "t_spice", "t_model", "speedup", "V_spice", "V_model"}, rows)
}
