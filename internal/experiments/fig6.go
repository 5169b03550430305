package experiments

import (
	"fmt"
	"math"

	"ivory/internal/dynamic"
	"ivory/internal/numeric"
	"ivory/internal/report"
)

// Fig6Tone compares the converter and a bare capacitor at one noise tone.
type Fig6Tone struct {
	// Freq is the tone frequency (Hz).
	Freq float64
	// AmpConverter and AmpBareCap are the output-voltage spectral
	// amplitudes under active regulation and under a bare decoupling
	// capacitor of the same size.
	AmpConverter, AmpBareCap float64
	// Ratio is AmpConverter / AmpBareCap: ~1 at/above the switching
	// frequency (no regulation, paper Eq. 5), <1 below it.
	Ratio float64
}

// Fig6Result reproduces the paper's Fig. 6: the regulation effect of an SC
// converter on multi-tone voltage noise compared with a bare capacitor,
// analyzed through the FFT of the simulated waveforms.
type Fig6Result struct {
	// FSw is the converter switching frequency; CFly the fly capacitance.
	FSw, CFly float64
	Tones     []Fig6Tone
	// Advantage1MHz etc. record the analytic RegulationAdvantage at the
	// tone frequencies for cross-checking against the time-domain result.
	AnalyticAdvantage []float64
}

// Fig6 runs the multi-tone regulation experiment: a 20 MHz SC converter
// with 1 nF of output-facing fly capacitance, against noise tones at 1, 50,
// and 100 MHz (below, above, and far above the switching frequency).
func Fig6() (*Fig6Result, error) {
	fsw := 20e6
	cfly := 1e-9
	// Tones below, above, and far above f_sw, deliberately off the
	// switching-harmonic grid so pump harmonics don't alias onto them.
	tones := []float64{1e6, 53e6, 97e6}
	amps := []float64{1e-3, 1e-3, 1e-3} // 1 mA noise per tone
	base := 0.1

	params := dynamic.SCParams{
		Ratio: 0.5, VIn: 2.0,
		CEq: 4e-9, REq: 0.5,
		COut: cfly, FClk: fsw,
		HystBand: 5e-3,
	}
	sim := &dynamic.SCSimulator{P: params}
	tone := dynamic.Tones(base, amps, tones)
	T := 40e-6 // 40 cycles of the slowest tone
	dt := 1e-9
	// The simulator reads the load at t = k·dt, the instants its trace
	// records and the bare-capacitor loop reads too, so each sample is
	// evaluated once into a table both share. A query off that grid falls
	// back to the tone sum.
	samples := make([]float64, int(math.Ceil(T/dt))+1)
	for k := range samples {
		samples[k] = tone(float64(k) * dt)
	}
	load := func(t float64) float64 {
		if k := int(math.Round(t / dt)); k >= 0 && k < len(samples) &&
			math.Float64bits(float64(k)*dt) == math.Float64bits(t) {
			return samples[k]
		}
		return tone(t)
	}
	tr, err := sim.Run(load, dynamic.Constant(0.95), T, dt)
	if err != nil {
		return nil, err
	}

	// Bare capacitor of the same size: the DC load is served by an ideal
	// source, noise rides on the capacitor alone. tr.Times[k] is k·dt, so
	// its load is samples[k].
	bare := make([]float64, len(tr.V))
	v := 0.95
	bare[0] = v
	for k := 1; k < len(tr.Times); k++ {
		v -= (samples[k] - base) * dt / cfly
		bare[k] = v
	}

	// Both waveforms share the sample grid, so one transform gives both
	// spectra.
	freqs, ac, ab, err := numeric.AmplitudeSpectra(tr.V, bare, dt)
	if err != nil {
		return nil, err
	}
	ampNear := func(amp []float64, f0 float64) float64 {
		best := 0.0
		for i, f := range freqs {
			if math.Abs(f-f0) < 0.5e6 && amp[i] > best {
				best = amp[i]
			}
		}
		return best
	}
	res := &Fig6Result{FSw: fsw, CFly: cfly}
	model := dynamic.FreqModel{FSw: fsw, COut: cfly, GLoop: params.CEq * fsw}
	for _, f0 := range tones {
		conv := ampNear(ac, f0)
		bareA := ampNear(ab, f0)
		ratio := math.Inf(1)
		if bareA > 0 {
			ratio = conv / bareA
		}
		res.Tones = append(res.Tones, Fig6Tone{Freq: f0, AmpConverter: conv, AmpBareCap: bareA, Ratio: ratio})
		res.AnalyticAdvantage = append(res.AnalyticAdvantage, model.RegulationAdvantage(f0))
	}
	return res, nil
}

// table describes Fig 6's tones, indexed into Tones and AnalyticAdvantage,
// for its text table and fig6.csv.
func (r *Fig6Result) table() *report.Table[int] {
	return &report.Table[int]{Name: "fig6", Columns: []report.Column[int]{
		{Text: "tone(MHz)", CSV: "tone_hz", Value: func(i int) any { return r.Tones[i].Freq }, Scale: 1e-6, Verb: "%.0f"},
		{Text: "conv(mV)", CSV: "amp_converter_v", Value: func(i int) any { return r.Tones[i].AmpConverter }, Scale: 1e3, Verb: "%.3f"},
		{Text: "cap(mV)", CSV: "amp_cap_v", Value: func(i int) any { return r.Tones[i].AmpBareCap }, Scale: 1e3, Verb: "%.3f"},
		{Text: "conv/cap", CSV: "ratio", Value: func(i int) any { return r.Tones[i].Ratio }, Verb: "%.2f"},
		{Text: "analytic adv", CSV: "analytic_advantage", Value: func(i int) any { return r.AnalyticAdvantage[i] }, Verb: "%.2f"},
	}}
}

// Format renders the figure data.
func (r *Fig6Result) Format() string {
	return fmt.Sprintf("Fig. 6 — regulation effect of a %.0f MHz SC converter vs a %.1f nF capacitor\n",
		r.FSw/1e6, r.CFly*1e9) + r.table().Text(upTo(len(r.Tones)))
}

// WriteCSV emits fig6.csv.
func (r *Fig6Result) WriteCSV(w *report.Writer) error {
	return r.table().WriteCSV(w, upTo(len(r.Tones)))
}
