package experiments

import (
	"context"
	"fmt"

	"ivory/internal/dynamic"
	"ivory/internal/numeric"
	"ivory/internal/report"
)

// FamilyTransientRow is one regulator family's load-step response.
type FamilyTransientRow struct {
	// Family names the regulator.
	Family string
	// WorstDroopMV is the deepest excursion below the reference (mV).
	WorstDroopMV float64
	// RecoveryNS is the time from the step until the output stays within
	// 1% of the reference (ns).
	RecoveryNS float64
	// SteadyRippleMV is the pre-step steady-state ripple (mVpp).
	SteadyRippleMV float64
}

// FamilyTransientsResult compares the dynamic load-step response of the
// three regulator families at a common operating point — the cross-family
// transient comparison Ivory's commensurate modeling enables (the same
// principle as the paper's static Table 2, applied to dynamics).
type FamilyTransientsResult struct {
	// VRef and the step magnitudes document the common scenario.
	VRef, IStep0, IStep1 float64
	Rows                 []FamilyTransientRow
}

// FamilyTransients runs the comparison: 1.8 V -> 0.9 V regulators at 45 nm
// hit with a 0.5 -> 2.0 A load step.
func FamilyTransients() (*FamilyTransientsResult, error) {
	vref := 0.9
	i0, i1 := 0.5, 2.0
	tStep := 2e-6
	T := 6e-6
	load := dynamic.Step(i0, i1, tStep)
	res := &FamilyTransientsResult{VRef: vref, IStep0: i0, IStep1: i1}

	analyze := func(family string, tr *dynamic.Trace) {
		worst := vref
		var preStep, postSteady []float64
		for i, t := range tr.Times {
			if t > tStep/2 && t < tStep {
				preStep = append(preStep, tr.V[i])
			}
			if t > T-0.5e-6 {
				postSteady = append(postSteady, tr.V[i])
			}
			if t >= tStep && tr.V[i] < worst {
				worst = tr.V[i]
			}
		}
		// Recovery is measured against the regulator's own post-step
		// steady level (hysteretic loops carry a load-dependent offset),
		// with a band wide enough for the steady ripple.
		settled := numeric.Mean(postSteady)
		// Recovery: first time after the step that the output climbs back
		// to its post-step steady level (robust for both first-order
		// recoveries and ringing loops, and for hysteretic loops whose
		// steady level carries a load-dependent offset).
		recovery := T - tStep
		for i, t := range tr.Times {
			if t < tStep {
				continue
			}
			if tr.V[i] >= settled {
				recovery = t - tStep
				break
			}
		}
		res.Rows = append(res.Rows, FamilyTransientRow{
			Family:         family,
			WorstDroopMV:   (vref - worst) * 1e3,
			RecoveryNS:     recovery * 1e9,
			SteadyRippleMV: numeric.PeakToPeak(preStep) * 1e3,
		})
	}

	// SC: 2:1 from 1.8 V, hysteretic feedback.
	scSim := &dynamic.SCSimulator{P: dynamic.SCParams{
		Ratio: 0.5, VIn: 1.8, CEq: 600e-9, REq: 0.008,
		COut: 60e-9, FClk: 200e6, Interleave: 4,
	}}
	trSC, err := scSim.Run(load, dynamic.Constant(vref), T, 0.5e-9)
	if err != nil {
		return nil, err
	}
	analyze("SC (hysteretic)", trSC)

	// Buck: 4-phase voltage-mode PI.
	buckSim := &dynamic.BuckSimulator{P: dynamic.BuckParams{
		VIn: 1.8, L: 8e-9, RL: 0.04, COut: 120e-9, FSw: 100e6, Interleave: 4,
	}}
	trBuck, err := buckSim.Run(load, dynamic.Constant(vref), T, 0.5e-9)
	if err != nil {
		return nil, err
	}
	analyze("buck (PI)", trBuck)

	// Digital LDO: proportional segmented control.
	ldoSim := &dynamic.LDOSimulator{P: dynamic.LDOParams{
		VIn: 1.8, GPass: 8, Segments: 128, COut: 60e-9, FSample: 200e6,
		Proportional: true,
	}}
	trLDO, err := ldoSim.Run(context.Background(), load, dynamic.Constant(vref), T, 0.5e-9)
	if err != nil {
		return nil, err
	}
	analyze("digital LDO (prop.)", trLDO)
	return res, nil
}

// familyTable describes the family comparison for its text table and
// families.csv.
var familyTable = report.Table[FamilyTransientRow]{Name: "families", Columns: []report.Column[FamilyTransientRow]{
	{Text: "family", CSV: "family", Value: func(r FamilyTransientRow) any { return r.Family }},
	{Text: "worst droop(mV)", CSV: "droop_mv", Value: func(r FamilyTransientRow) any { return r.WorstDroopMV }, Verb: "%.1f"},
	{Text: "recovery(ns)", CSV: "recovery_ns", Value: func(r FamilyTransientRow) any { return r.RecoveryNS }, Verb: "%.0f"},
	{Text: "steady ripple(mVpp)", CSV: "ripple_mvpp", Value: func(r FamilyTransientRow) any { return r.SteadyRippleMV }, Verb: "%.2f"},
}}

// Format renders the comparison.
func (r *FamilyTransientsResult) Format() string {
	return fmt.Sprintf("Extension — family transient comparison (%.2f V, %.1f -> %.1f A step)\n",
		r.VRef, r.IStep0, r.IStep1) + familyTable.Text(r.Rows)
}

// WriteCSV emits families.csv.
func (r *FamilyTransientsResult) WriteCSV(w *report.Writer) error {
	return familyTable.WriteCSV(w, r.Rows)
}
