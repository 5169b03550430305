// Package dynamic implements Ivory's dynamic feedback-response models: the
// combination of a cycle-by-cycle discrete-time model (accurate below the
// switching frequency, paper Eq. 2) with an in-cycle model (the
// output-facing capacitance decoupling noise above the switching frequency)
// that together produce an IVR's full output-voltage waveform under load
// transients and fast DVFS — the paper's key method for capturing noise
// across the whole frequency range at 10³-10⁵x SPICE speed.
package dynamic

import (
	"fmt"
	"math"

	"ivory/internal/numeric"
)

// Signal is a time-varying quantity (load current, reference voltage).
type Signal func(t float64) float64

// Constant returns a constant signal.
func Constant(v float64) Signal { return func(float64) float64 { return v } }

// Sampled wraps uniformly sampled data (period dt) into a Signal with
// zero-order hold; out-of-range times hold the boundary samples.
func Sampled(data []float64, dt float64) Signal {
	n := len(data)
	return func(t float64) float64 {
		if n == 0 {
			return 0
		}
		k := int(t / dt)
		if k < 0 {
			k = 0
		}
		if k >= n {
			k = n - 1
		}
		return data[k]
	}
}

// Step returns a signal that is from before tStep and to after. The
// levels are unit-agnostic: load steps pass amperes, reference steps
// volts.
func Step(from, to, tStep float64) Signal {
	return func(t float64) float64 {
		if t < tStep {
			return from
		}
		return to
	}
}

// Tones returns a sum of sinusoids offset around a base value — the
// synthetic multi-tone noise waveform used for the paper's Fig. 6 analysis.
func Tones(base float64, amps, freqs []float64) Signal {
	if len(amps) != len(freqs) {
		panic("dynamic: Tones needs matching amplitude/frequency slices")
	}
	return func(t float64) float64 {
		v := base
		for i, a := range amps {
			v += a * math.Sin(2*math.Pi*freqs[i]*t)
		}
		return v
	}
}

// Trace is a simulated output-voltage waveform with bookkeeping.
type Trace struct {
	// Times and V are the sampled instants and output voltages.
	Times, V []float64
	// SwitchEvents counts converter charge-transfer (pump/PWM) events.
	SwitchEvents int
	// AvgFSw is the average realized switching frequency (Hz).
	AvgFSw float64
}

// Reset clears the trace for reuse, keeping the Times/V capacity so a hot
// caller can recycle one Trace across many simulations.
func (tr *Trace) Reset() {
	tr.Times = tr.Times[:0]
	tr.V = tr.V[:0]
	tr.SwitchEvents = 0
	tr.AvgFSw = 0
}

// prepareTrace resets tr (allocating one when nil) and ensures capacity for
// the requested number of samples, so the simulator append loops never grow.
func prepareTrace(tr *Trace, samples int) *Trace {
	if tr == nil {
		tr = &Trace{}
	}
	tr.Reset()
	if cap(tr.Times) < samples {
		tr.Times = make([]float64, 0, samples)
	}
	if cap(tr.V) < samples {
		tr.V = make([]float64, 0, samples)
	}
	return tr
}

// Finite verifies every sample of the trace is finite. The simulators
// call it before returning so that an unstable integration (NaN/Inf
// creeping into the waveform) surfaces as an error rather than corrupting
// downstream droop/ripple statistics.
func (tr *Trace) Finite() error {
	if err := numeric.AllFinite("dynamic: trace voltage", tr.V...); err != nil {
		return err
	}
	return numeric.Finite("dynamic: average f_sw", tr.AvgFSw)
}

// Stats summarizes the waveform.
func (tr *Trace) Stats() numeric.Summary { return numeric.Summarize(tr.V) }

// PeakToPeak returns the voltage-noise range max(V)-min(V).
func (tr *Trace) PeakToPeak() float64 { return numeric.PeakToPeak(tr.V) }

// Spectrum returns the single-sided amplitude spectrum of the waveform
// (with the mean removed), for regulation-effect analysis à la Fig. 6.
func (tr *Trace) Spectrum() (freq, amp []float64) {
	n := len(tr.V)
	if n < 2 {
		return nil, nil
	}
	dt := tr.Times[1] - tr.Times[0]
	mean := numeric.Mean(tr.V)
	x := make([]float64, n)
	for i, v := range tr.V {
		x[i] = v - mean
	}
	return numeric.RealFFTMagnitude(x, dt)
}

func validateRun(T, dt float64) error {
	if dt <= 0 || T <= 0 || T < dt {
		return fmt.Errorf("dynamic: need 0 < dt <= T (dt=%g, T=%g)", dt, T)
	}
	if T/dt > 5e7 {
		return fmt.Errorf("dynamic: %g steps is beyond the supported budget", T/dt)
	}
	return nil
}
