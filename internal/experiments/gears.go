package experiments

import (
	"fmt"

	"ivory/internal/report"
	"ivory/internal/sc"
	"ivory/internal/tech"
	"ivory/internal/topology"
)

// GearsResult studies a reconfigurable (gear-shifting) SC converter of the
// style the paper validates in Fig. 7's left plot: one 32 nm fabric that
// reconfigures between the 3:2 and 2:1 ratios, with the governor selecting
// the better gear per output voltage — the DVFS-companion behaviour.
type GearsResult struct {
	// VOut / Envelope / Gear trace the best-gear efficiency envelope.
	VOut, Envelope []float64
	Gear           []int
	// GearNames labels the gears.
	GearNames []string
	// ShiftV are the gear-shift voltages found on the envelope.
	ShiftV []float64
}

// Gears runs the envelope sweep.
func Gears() (*GearsResult, error) {
	var gears []*topology.Analysis
	names := []string{"2:1", "3:2"}
	for _, pq := range [][2]int{{2, 1}, {3, 2}} {
		top, err := topology.SeriesParallel(pq[0], pq[1])
		if err != nil {
			return nil, err
		}
		an, err := top.Analyze()
		if err != nil {
			return nil, err
		}
		gears = append(gears, an)
	}
	base := sc.Config{
		Node:    tech.MustLookup("32nm"),
		CapKind: tech.DeepTrench,
		VIn:     1.8,
		VOut:    0.8,
		CTotal:  60e-9,
		GTotal:  150,
		CDecap:  15e-9,
	}
	r, err := sc.NewReconfigurable(base, gears)
	if err != nil {
		return nil, err
	}
	iLoad := 0.3
	vout, eff, gear := r.EfficiencyEnvelope(iLoad, 0.60, 1.15, 23)
	if len(vout) == 0 {
		return nil, fmt.Errorf("experiments: empty gear envelope")
	}
	return &GearsResult{
		VOut:      vout,
		Envelope:  eff,
		Gear:      gear,
		GearNames: names,
		ShiftV:    r.ShiftPoints(iLoad, 0.60, 1.15, 23),
	}, nil
}

// table describes the envelope, indexed by output voltage, for its text
// table and gears.csv.
func (r *GearsResult) table() *report.Table[int] {
	return &report.Table[int]{Name: "gears", Columns: []report.Column[int]{
		{Text: "Vout(V)", CSV: "vout_v", Value: func(i int) any { return r.VOut[i] }, Verb: "%.3f"},
		{Text: "eff(%)", CSV: "efficiency", Value: func(i int) any { return r.Envelope[i] }, Scale: 100, Verb: "%.1f"},
		{Text: "gear", Value: func(i int) any { return r.GearNames[r.Gear[i]] }},
		{CSV: "gear_index", Value: func(i int) any { return r.Gear[i] }},
	}}
}

// Format renders the envelope.
func (r *GearsResult) Format() string {
	out := "Extension — reconfigurable (gear-shifting) SC converter envelope\n"
	out += r.table().Text(upTo(len(r.VOut)))
	for _, s := range r.ShiftV {
		out += fmt.Sprintf("gear shift at ~%.2f V\n", s)
	}
	return out
}

// WriteCSV emits gears.csv.
func (r *GearsResult) WriteCSV(w *report.Writer) error {
	return r.table().WriteCSV(w, upTo(len(r.VOut)))
}
