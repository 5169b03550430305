package experiments

import (
	"context"
	"fmt"
	"math"

	"ivory/internal/dynamic"
	"ivory/internal/numeric"
	"ivory/internal/parallel"
	"ivory/internal/report"
	"ivory/internal/sc"
	"ivory/internal/spice"
	"ivory/internal/topology"
)

// Fig9Result reproduces the paper's Fig. 9: transient-response validation
// of (a) the cycle-by-cycle model and (b) the in-cycle model against the
// circuit simulator.
type Fig9Result struct {
	// CycleTimes/CycleModel/CycleSim sample the output voltage during a
	// load step, at switching-cycle granularity.
	CycleTimes, CycleModel, CycleSim []float64
	// CycleRMSE and CycleMaxErr quantify the (a) comparison.
	CycleRMSE, CycleMaxErr float64
	// InCycleRippleModel/Sim compare the intra-cycle ripple amplitude under
	// a high-frequency noise tone — the (b) comparison.
	InCycleRippleModel, InCycleRippleSim float64
	// InCycleErr is the relative ripple disagreement.
	InCycleErr float64
}

// fig9Bench is the reference 2:1 converter and the testbench both Fig 9
// validations simulate. Each validation builds its own circuit from it.
type fig9Bench struct {
	d          *sc.Design
	top        *topology.Topology
	an         *topology.Analysis
	caps, rons []float64
	vin, fsw   float64
	cload      float64
}

// Fig9 runs both validations on the reference 2:1 converter. They are
// independent simulations, so they run concurrently.
func Fig9() (*Fig9Result, error) {
	d, top, an, err := mustSC(20e-9, 150, 0.8, 2e9)
	if err != nil {
		return nil, err
	}
	caps, rons := d.ElementValues()
	b := &fig9Bench{d: d, top: top, an: an, caps: caps, rons: rons, vin: 1.8, fsw: 50e6, cload: 100e-9}
	res := &Fig9Result{}
	parts := []func(*Fig9Result) error{b.cycleByCycle, b.inCycle}
	if err := parallel.ForContext(context.Background(), len(parts), 0, func(_ context.Context, i int) error {
		return parts[i](res)
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// cycleByCycle is validation (a): a 0.1 -> 0.4 A load step mid-run, open
// loop, sampled at switching-cycle granularity. It fills res's Cycle fields.
func (b *fig9Bench) cycleByCycle(res *Fig9Result) error {
	d, fsw := b.d, b.fsw
	tStep := 2e-6
	T := 6e-6
	iStep0, iStep1 := 0.1, 0.4
	loadSig := dynamic.Step(iStep0, iStep1, tStep)
	ckt, err := spice.BuildSC(b.top, b.an, b.caps, b.rons, spice.SCOptions{
		VIn: b.vin, FSw: fsw, CLoad: b.cload, ILoad: 0,
		Load:   spice.Waveform(func(t float64) float64 { return loadSig(t) }),
		VOutIC: b.an.Ratio*b.vin - iStep0*d.ROut(fsw),
	})
	if err != nil {
		return err
	}
	ckt.Save("vout")
	sres, err := ckt.Tran(1/(fsw*64), T)
	if err != nil {
		return err
	}
	params := dynamic.SCFromDesign(d)
	// The testbench's explicit load capacitance replaces the design decap.
	params.COut = b.cload + 0.5*d.Config().CTotal
	sim := &dynamic.SCSimulator{P: params}
	tr, err := sim.CycleByCycle(loadSig, fsw, T)
	if err != nil {
		return err
	}
	// The cycle model starts at the no-load ideal; align by starting the
	// comparison after its initial settling (first 20 cycles).
	skip := 20
	var se, worst float64
	n := 0
	for k := skip; k < len(tr.Times); k++ {
		t := tr.Times[k]
		idx := int(t * fsw * 64)
		if idx >= len(sres.Times) {
			break
		}
		mv := tr.V[k]
		sv := sres.At("vout", idx)
		res.CycleTimes = append(res.CycleTimes, t)
		res.CycleModel = append(res.CycleModel, mv)
		res.CycleSim = append(res.CycleSim, sv)
		e := math.Abs(mv - sv)
		se += e * e
		if e > worst {
			worst = e
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("experiments: fig9 produced no comparable samples")
	}
	res.CycleRMSE = math.Sqrt(se / float64(n))
	res.CycleMaxErr = worst
	return nil
}

// inCycle is validation (b): a 217 MHz noise tone (above fsw, off the
// harmonic grid) rides on the load; the output ripple is set by the
// output-facing capacitance alone. It fills res's InCycle fields.
func (b *fig9Bench) inCycle(res *Fig9Result) error {
	d := b.d
	toneHz := 217e6
	toneA := 0.1
	iBase := 0.2
	noisy := dynamic.Tones(iBase, []float64{toneA}, []float64{toneHz})
	ckt, err := spice.BuildSC(b.top, b.an, b.caps, b.rons, spice.SCOptions{
		VIn: b.vin, FSw: b.fsw, CLoad: b.cload, ILoad: 0,
		Load:   spice.Waveform(func(t float64) float64 { return noisy(t) }),
		VOutIC: b.an.Ratio*b.vin - iBase*d.ROut(b.fsw),
	})
	if err != nil {
		return err
	}
	ckt.Save("vout")
	sres, err := ckt.Tran(1/(toneHz*32), 4e-6)
	if err != nil {
		return err
	}
	// Simulated tone amplitude from the spectrum of the settled second
	// half, around the tone frequency.
	vout := sres.V["vout"]
	freqs, amps, _, err := numeric.AmplitudeSpectra(vout[len(vout)/2:], nil, 1/(toneHz*32))
	if err != nil {
		return err
	}
	vSim := 0.0
	for i, f := range freqs {
		if math.Abs(f-toneHz) < toneHz/50 && amps[i] > vSim {
			vSim = amps[i]
		}
	}
	// In-cycle model: above f_sw the converter is just its output-facing
	// capacitance (paper Eq. 5): ripple amplitude = I_tone / (w*C).
	cEff := b.cload + 0.5*d.Config().CTotal
	vModel := toneA / (2 * math.Pi * toneHz * cEff)
	res.InCycleRippleModel = vModel
	res.InCycleRippleSim = vSim
	if vSim > 0 {
		res.InCycleErr = math.Abs(vModel-vSim) / vSim
	}
	return nil
}

// waveform describes the cycle-by-cycle samples, indexed, for the text
// excerpt and fig9_waveform.csv.
func (r *Fig9Result) waveform() *report.Table[int] {
	return &report.Table[int]{Name: "fig9_waveform", Columns: []report.Column[int]{
		{Text: "t(us)", CSV: "t_s", Value: func(k int) any { return r.CycleTimes[k] }, Scale: 1e6, Verb: "%.2f"},
		{Text: "model(V)", CSV: "v_model", Value: func(k int) any { return r.CycleModel[k] }, Verb: "%.4f"},
		{Text: "sim(V)", CSV: "v_sim", Value: func(k int) any { return r.CycleSim[k] }, Verb: "%.4f"},
	}}
}

// fig9Summary describes fig9_summary.csv, one row of headline errors.
var fig9Summary = report.Table[*Fig9Result]{Name: "fig9_summary", Columns: []report.Column[*Fig9Result]{
	{CSV: "cycle_rmse_v", Value: func(r *Fig9Result) any { return r.CycleRMSE }},
	{CSV: "cycle_maxerr_v", Value: func(r *Fig9Result) any { return r.CycleMaxErr }},
	{CSV: "incycle_model_v", Value: func(r *Fig9Result) any { return r.InCycleRippleModel }},
	{CSV: "incycle_sim_v", Value: func(r *Fig9Result) any { return r.InCycleRippleSim }},
}}

// Format renders the validation summary plus a waveform excerpt.
func (r *Fig9Result) Format() string {
	out := "Fig. 9 — transient response validation\n"
	out += fmt.Sprintf("(a) cycle-by-cycle vs simulation: RMSE %.2f mV, max err %.2f mV over %d cycles\n",
		r.CycleRMSE*1e3, r.CycleMaxErr*1e3, len(r.CycleTimes))
	out += r.waveform().Text(excerpt(len(r.CycleTimes), 12))
	out += fmt.Sprintf("(b) in-cycle ripple at 217 MHz: model %.3f mV vs sim %.3f mV (err %.1f%%)\n",
		r.InCycleRippleModel*1e3, r.InCycleRippleSim*1e3, r.InCycleErr*100)
	return out
}

// WriteCSV emits fig9_waveform.csv and fig9_summary.csv.
func (r *Fig9Result) WriteCSV(w *report.Writer) error {
	if err := r.waveform().WriteCSV(w, upTo(len(r.CycleTimes))); err != nil {
		return err
	}
	return fig9Summary.WriteCSV(w, []*Fig9Result{r})
}
