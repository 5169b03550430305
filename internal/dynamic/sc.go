package dynamic

import (
	"context"
	"fmt"
	"math"

	"ivory/internal/sc"
)

// runCancelStride is the number of in-cycle steps between context polls in
// the simulator loops: frequent enough that cancellation lands mid-waveform
// (a stride is well under a millisecond of wall time), rare enough that the
// poll never shows in profiles.
const runCancelStride = 4096

// SCParams is the lumped dynamic model of a switched-capacitor converter:
// an ideal Ratio:1 transformer feeding the output through a charge-transfer
// capacitance CEq and resistance REq, with COut of output-facing
// capacitance. CEq/REq are chosen so the cycle-by-cycle model reproduces
// the static model's SSL and FSL impedances at the limits:
//
//	CEq = C_tot / (Σa_c)²   (slow limit:  R_out -> 1/(CEq·f_sw) = R_SSL)
//	REq = R_FSL / 2         (fast limit:  R_out -> 2·REq       = R_FSL)
type SCParams struct {
	// Ratio is the ideal conversion ratio M; VIn the input voltage (V).
	Ratio, VIn float64
	// CEq and REq are the lumped charge-transfer parameters.
	CEq, REq float64
	// COut is the output-node capacitance: explicit decap plus the
	// phase-connected flying capacitance (the in-cycle decoupling path).
	COut float64
	// FClk is the pump-decision clock (the maximum switching frequency of
	// the hysteretic feedback); the realized average f_sw is lower and
	// load-dependent.
	FClk float64
	// Interleave staggers pump opportunities across N slices, each
	// transferring 1/N of the charge.
	Interleave int
	// HystBand is the allowed overshoot above the reference per pump (V);
	// the controller narrows the transfer pulse to respect it, as real
	// pulse-width-limited hysteretic controllers do. Zero selects 10 mV.
	HystBand float64
}

// SCFromDesign maps a static SC design to its dynamic model parameters,
// clocking the hysteretic loop at the design's maximum frequency.
func SCFromDesign(d *sc.Design) SCParams {
	cfg := d.Config()
	an := cfg.Analysis
	fclk := cfg.FSwMax
	return SCParams{
		Ratio:      an.Ratio,
		VIn:        cfg.VIn,
		CEq:        cfg.CTotal / (an.SumAC * an.SumAC),
		REq:        d.RFSL() / 2,
		COut:       cfg.CDecap + d.CFlyEffective(),
		FClk:       fclk,
		Interleave: cfg.Interleave,
	}
}

// SCFromDesignAtLoad maps a static SC design to dynamic parameters with the
// pump clock set to twice the regulation frequency at the given worst-case
// load (clamped to the design's FSwMax) — the realistic headroom a
// hysteretic controller is clocked with.
func SCFromDesignAtLoad(d *sc.Design, iMax float64) (SCParams, error) {
	p := SCFromDesign(d)
	fReg, err := d.RegulationFrequency(iMax)
	if err != nil {
		return SCParams{}, err
	}
	fclk := 2 * fReg
	if fclk > d.Config().FSwMax {
		fclk = d.Config().FSwMax
	}
	p.FClk = fclk
	return p, nil
}

// SCSimulator runs the combined cycle-by-cycle + in-cycle model of an SC
// converter under hysteretic (clocked lower-bound) feedback: at each slice
// clock tick, the slice pumps iff the output is below the reference; in
// between, the load current discharges COut continuously — which is exactly
// the high-frequency decoupling behaviour of the in-cycle model.
type SCSimulator struct {
	P SCParams
	// VIn optionally overrides the constant input voltage with a waveform,
	// enabling the line-regulation scenarios the paper validates: input
	// steps and ripple propagate into the pump charge (M·v_in(t) − v)
	// and the feedback absorbs them below the switching frequency.
	VIn Signal
}

// vin returns the input voltage at time t.
func (s *SCSimulator) vin(t float64) float64 {
	if s.VIn != nil {
		return s.VIn(t)
	}
	return s.P.VIn
}

// Validate checks the parameter set.
func (s *SCSimulator) Validate() error {
	p := s.P
	if p.Ratio <= 0 || p.VIn <= 0 {
		return fmt.Errorf("dynamic: SC ratio and VIn must be positive")
	}
	if p.CEq <= 0 || p.REq <= 0 || p.COut <= 0 || p.FClk <= 0 {
		return fmt.Errorf("dynamic: SC CEq, REq, COut, FClk must be positive")
	}
	if p.Interleave < 0 {
		return fmt.Errorf("dynamic: negative interleave")
	}
	return nil
}

// Run simulates the output voltage over [0, T] at in-cycle resolution dt,
// with load current iLoad(t) and reference vRef(t) (fast DVFS is a vRef
// schedule). The output starts at vRef(0).
func (s *SCSimulator) Run(iLoad, vRef Signal, T, dt float64) (*Trace, error) {
	return s.RunInto(context.Background(), nil, iLoad, vRef, T, dt)
}

// RunInto is Run with run control and buffer reuse: ctx is polled every
// runCancelStride in-cycle steps so a cancelled case-study cell stops
// mid-waveform, and tr (may be nil) is reset and refilled, recycling its
// Times/V storage across simulations. The returned trace is tr when one was
// provided.
func (s *SCSimulator) RunInto(ctx context.Context, tr *Trace, iLoad, vRef Signal, T, dt float64) (*Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := validateRun(T, dt); err != nil {
		return nil, err
	}
	p := s.P
	n := p.Interleave
	if n == 0 {
		n = 1
	}
	// Slice pump opportunities arrive at n * FClk, round-robin.
	tickPeriod := 1 / (p.FClk * float64(n))
	if dt > tickPeriod {
		return nil, fmt.Errorf("dynamic: dt %g must resolve the slice tick %g", dt, tickPeriod)
	}
	band := p.HystBand
	if band == 0 {
		band = 10e-3
	}
	// Per-pump charge: each of the n slices owns CEq/n and pumps on its
	// tick if below reference, following Eq. 2's exponential charge
	// increment with T_cycle = 1/FClk per slice. Gross overshoot of a
	// large single pump is prevented by the pulse-width limit below.
	ceqSlice := p.CEq / float64(n)
	expFactor := 1 - math.Exp(-1/(p.FClk*2*p.REq*p.CEq))

	steps := int(math.Ceil(T / dt))
	tr = prepareTrace(tr, steps+1)
	v := vRef(0)
	tr.Times = append(tr.Times, 0)
	tr.V = append(tr.V, v)
	nextTick := tickPeriod
	for k := 1; k <= steps; k++ {
		if k%runCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		t := float64(k) * dt
		// In-cycle: the load discharges the output-facing capacitance.
		v -= iLoad(t) * dt / p.COut
		// Cycle-by-cycle: pump decision at slice ticks.
		for nextTick <= t {
			if ref := vRef(nextTick); v < ref {
				dq := (p.Ratio*s.vin(nextTick) - v) * ceqSlice * expFactor
				// Pulse-width limiting: do not overshoot ref + band.
				if lim := (ref + band - v) * p.COut; dq > lim {
					dq = lim
				}
				if dq > 0 {
					v += dq / p.COut
					tr.SwitchEvents++
				}
			}
			nextTick += tickPeriod
		}
		tr.Times = append(tr.Times, t)
		tr.V = append(tr.V, v)
	}
	if T > 0 {
		tr.AvgFSw = float64(tr.SwitchEvents) / float64(n) / T
	}
	if err := tr.Finite(); err != nil {
		return nil, err
	}
	return tr, nil
}

// CycleByCycle runs only the discrete-time model of paper Eq. 2 at the
// converter period (no in-cycle resolution): one sample per switching cycle
// with a fixed switching frequency — the variant validated against SPICE in
// Fig. 9(a).
func (s *SCSimulator) CycleByCycle(iLoad Signal, fsw, T float64) (*Trace, error) {
	return s.CycleByCycleInto(context.Background(), nil, iLoad, fsw, T)
}

// CycleByCycleInto is CycleByCycle with the same run control and buffer
// reuse as RunInto.
func (s *SCSimulator) CycleByCycleInto(ctx context.Context, tr *Trace, iLoad Signal, fsw, T float64) (*Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if fsw <= 0 {
		return nil, fmt.Errorf("dynamic: fsw must be positive")
	}
	p := s.P
	period := 1 / fsw
	if err := validateRun(T, period); err != nil {
		return nil, err
	}
	exp := 1 - math.Exp(-1/(fsw*2*p.REq*p.CEq))
	steps := int(math.Ceil(T * fsw))
	tr = prepareTrace(tr, steps+1)
	v := p.Ratio * p.VIn
	tr.Times = append(tr.Times, 0)
	tr.V = append(tr.V, v)
	for k := 1; k <= steps; k++ {
		if k%runCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		t := float64(k) * period
		// Paper Eq. 2.
		v = v + (-iLoad(t)*period+(p.Ratio*s.vin(t)-v)*p.CEq*exp)/p.COut
		tr.Times = append(tr.Times, t)
		tr.V = append(tr.V, v)
		tr.SwitchEvents++
	}
	tr.AvgFSw = fsw
	if err := tr.Finite(); err != nil {
		return nil, err
	}
	return tr, nil
}
