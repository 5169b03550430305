// Package workload supplies the load-side inputs of the case study: power
// traces of GPU benchmarks and the digital-load current model.
//
// The paper drives Ivory with GPGPU-Sim/GPUWattch power traces of CUDA SDK
// and Rodinia workloads. Those simulators (and their traces) are outside
// this reproduction's scope, so the package synthesizes per-benchmark
// traces instead: each benchmark is parameterized by its published
// character — average utilization, slow phase structure (kernel launches),
// fast burst spectrum, and step intensity — and generated from a seeded
// PRNG so experiments are reproducible. The dynamic analysis only consumes
// I(t), so the synthetic traces exercise exactly the same code paths and
// preserve the relative noise ordering across regulator configurations.
//
// # Seed derivation
//
// Every generator in this package is a pure function of its seed. The
// layering rule, outermost first:
//
//   - The transient engines derive one stream per core as
//     systemSeed XOR FNV-1a(source name, core index), where the source
//     name is Source.TraceName — a benchmark's Name or a schedule's Name.
//   - A PhaseSchedule further derives one stream per phase occurrence as
//     coreSeed XOR FNV-1a(schedule name, occurrence index, phase benchmark
//     name), then hands that seed to the phase benchmark's PowerTraceInto
//     restarted at local time zero.
//
// Names enter through FNV-1a hashes (never lengths or positions), so
// distinct names always select distinct streams, every cycle through a
// schedule redraws fresh randomness, and regenerating any prefix of a
// trace is bit-identical regardless of the requested span. The
// PhaseSchedule golden test pins this contract.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Benchmark characterizes one synthetic workload.
type Benchmark struct {
	// Name is the benchmark identifier (e.g. "CFD").
	Name string
	// Base is the average utilization (fraction of TDP).
	Base float64
	// PhaseAmp is the amplitude of slow kernel-phase swings (fraction).
	PhaseAmp float64
	// PhasePeriod is the kernel-phase duration (s).
	PhasePeriod float64
	// BurstAmp is the fast current-burst amplitude (fraction of TDP).
	BurstAmp float64
	// BurstFreqs are the characteristic burst frequencies (Hz).
	BurstFreqs []float64
	// StepProb is the per-sample probability of an activity step (kernel
	// boundary, barrier) at microsecond granularity.
	StepProb float64
	// NoiseSigma is the white per-sample noise level (fraction).
	NoiseSigma float64
}

// builtin benchmarks follow the seven workloads of the paper's Figs. 10-11,
// with characters drawn from published GPUVolt/GPUWattch descriptions:
// CFD is the noisiest (large kernels with sharp di/dt), BFS is irregular
// and memory-bound, LUD ramps as the triangular solve shrinks, etc.
var builtin = map[string]Benchmark{
	"BACKP": {Name: "BACKP", Base: 0.62, PhaseAmp: 0.12, PhasePeriod: 18e-6, BurstAmp: 0.10,
		BurstFreqs: []float64{2e6, 15e6}, StepProb: 0.015, NoiseSigma: 0.03},
	"BFS2": {Name: "BFS2", Base: 0.45, PhaseAmp: 0.20, PhasePeriod: 9e-6, BurstAmp: 0.08,
		BurstFreqs: []float64{1e6, 8e6}, StepProb: 0.030, NoiseSigma: 0.05},
	"CFD": {Name: "CFD", Base: 0.70, PhaseAmp: 0.18, PhasePeriod: 25e-6, BurstAmp: 0.16,
		BurstFreqs: []float64{3e6, 20e6, 60e6}, StepProb: 0.020, NoiseSigma: 0.04},
	"HOTSP": {Name: "HOTSP", Base: 0.66, PhaseAmp: 0.10, PhasePeriod: 14e-6, BurstAmp: 0.09,
		BurstFreqs: []float64{5e6, 25e6}, StepProb: 0.010, NoiseSigma: 0.03},
	"KMN": {Name: "KMN", Base: 0.55, PhaseAmp: 0.16, PhasePeriod: 12e-6, BurstAmp: 0.11,
		BurstFreqs: []float64{2e6, 12e6}, StepProb: 0.018, NoiseSigma: 0.04},
	"LUD": {Name: "LUD", Base: 0.58, PhaseAmp: 0.14, PhasePeriod: 10e-6, BurstAmp: 0.10,
		BurstFreqs: []float64{4e6, 18e6}, StepProb: 0.022, NoiseSigma: 0.035},
	"MGST": {Name: "MGST", Base: 0.52, PhaseAmp: 0.15, PhasePeriod: 11e-6, BurstAmp: 0.12,
		BurstFreqs: []float64{1.5e6, 10e6, 35e6}, StepProb: 0.025, NoiseSigma: 0.045},
}

// Names returns the sorted benchmark names.
func Names() []string {
	out := make([]string, 0, len(builtin))
	for k := range builtin {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Get returns the named benchmark.
func Get(name string) (Benchmark, error) {
	b, ok := builtin[name]
	if !ok {
		return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	return b, nil
}

// PowerTraceInto synthesizes n samples of the benchmark's power draw (W)
// at sample interval dt for a core of the given TDP. The same seed always
// yields the same trace. dst (may be nil) donates its capacity when it fits
// n samples.
func (b Benchmark) PowerTraceInto(dst []float64, tdp, dt float64, n int, seed int64) []float64 {
	if n <= 0 || tdp <= 0 || dt <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	// Random phases for the burst tones. The stack array covers every builtin
	// benchmark (≤ 3 tones), keeping trace regeneration allocation-free.
	var phaseArr [8]float64
	var phases []float64
	if len(b.BurstFreqs) <= len(phaseArr) {
		phases = phaseArr[:len(b.BurstFreqs)]
	} else {
		phases = make([]float64, len(b.BurstFreqs))
	}
	for i := range phases {
		phases[i] = rng.Float64() * 2 * math.Pi
	}
	out := dst
	if cap(out) < n {
		out = make([]float64, n)
	} else {
		out = out[:n]
	}
	phaseLevel := b.Base
	nextPhase := b.PhasePeriod * (0.5 + rng.Float64())
	stepLevel := 0.0
	// Step checks happen at ~microsecond granularity regardless of dt.
	stepEvery := int(math.Max(1, 1e-6/dt))
	for k := 0; k < n; k++ {
		t := float64(k) * dt
		if t >= nextPhase {
			phaseLevel = b.Base + b.PhaseAmp*(2*rng.Float64()-1)
			nextPhase += b.PhasePeriod * (0.5 + rng.Float64())
		}
		if k%stepEvery == 0 && rng.Float64() < b.StepProb {
			// Kernel boundary: drop toward idle or jump to full throttle.
			// The sharp edges are the di/dt content that excites PDN
			// resonances (the first-droop events of GPUVolt).
			if rng.Float64() < 0.5 {
				stepLevel = -0.4 * rng.Float64()
			} else {
				stepLevel = 0.35 * rng.Float64()
			}
		} else if k%stepEvery == 0 {
			stepLevel *= 0.7 // steps decay over microseconds
		}
		v := phaseLevel + stepLevel + b.NoiseSigma*rng.NormFloat64()
		for i, f := range b.BurstFreqs {
			v += b.BurstAmp / float64(len(b.BurstFreqs)) * math.Sin(2*math.Pi*f*t+phases[i])
		}
		if v < 0.05 {
			v = 0.05
		}
		if v > 1.25 {
			v = 1.25
		}
		out[k] = v * tdp
	}
	return out
}

// LoadModel converts power demand into supply current, capturing the
// voltage dependence the paper embeds (dynamic + leakage): once the
// maximal load is specified the model yields the current at any voltage
// and activity level.
type LoadModel struct {
	// PNominal is the dynamic power at VNominal, full activity (W).
	PNominal float64
	// VNominal is the nominal supply (V).
	VNominal float64
	// LeakFraction is the leakage share of total nominal power.
	LeakFraction float64
	// FrequencyTracksV makes clock frequency scale with voltage (DVFS
	// operation), giving dynamic power a cubic rather than quadratic
	// voltage dependence.
	FrequencyTracksV bool
}

// Validate checks the model.
func (m LoadModel) Validate() error {
	if m.PNominal <= 0 || m.VNominal <= 0 {
		return fmt.Errorf("workload: PNominal and VNominal must be positive")
	}
	if m.LeakFraction < 0 || m.LeakFraction >= 1 {
		return fmt.Errorf("workload: LeakFraction %g outside [0, 1)", m.LeakFraction)
	}
	return nil
}

// Current returns the supply current (A) at the given activity (0..1+) and
// supply voltage v. Dynamic current scales as activity·C·V·f (f fixed or
// tracking V); leakage scales exponentially with voltage (~60 mV/decade of
// sub-threshold slope folded into a 100 mV e-fold).
func (m LoadModel) Current(activity, v float64) float64 {
	if v <= 0 {
		return 0
	}
	pdynNom := m.PNominal * (1 - m.LeakFraction)
	// P_dyn = a·C·V²·f -> I_dyn = a·C·V·f.
	iDynNom := pdynNom / m.VNominal
	scale := v / m.VNominal
	iDyn := activity * iDynNom * scale
	if m.FrequencyTracksV {
		iDyn *= scale
	}
	iLeakNom := m.PNominal * m.LeakFraction / m.VNominal
	iLeak := iLeakNom * math.Exp((v-m.VNominal)/0.1)
	return iDyn + iLeak
}

// CurrentTrace converts a power trace (W, at VNominal reference) into a
// current trace (A) at the actual supply voltage v using the load model:
// the activity of each sample is inferred from the power sample.
func (m LoadModel) CurrentTrace(power []float64, v float64) []float64 {
	return m.CurrentTraceInto(nil, power, v)
}

// CurrentTraceInto is CurrentTrace with buffer reuse: dst (may be nil)
// donates its capacity when it fits len(power) samples. The voltage-only
// factors (leakage exponential, dynamic scale) are hoisted out of the loop;
// each sample still evaluates the exact expression LoadModel.Current would,
// so the hoisted form stays bit-identical to calling Current per sample.
func (m LoadModel) CurrentTraceInto(dst, power []float64, v float64) []float64 {
	out := dst
	if cap(out) < len(power) {
		out = make([]float64, len(power))
	} else {
		out = out[:len(power)]
	}
	if v <= 0 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	pdynNom := m.PNominal * (1 - m.LeakFraction)
	pLeak := m.PNominal * m.LeakFraction
	iDynNom := pdynNom / m.VNominal
	scale := v / m.VNominal
	iLeak := m.PNominal * m.LeakFraction / m.VNominal * math.Exp((v-m.VNominal)/0.1)
	for i, p := range power {
		activity := (p - pLeak) / pdynNom
		if activity < 0 {
			activity = 0
		}
		iDyn := activity * iDynNom * scale
		if m.FrequencyTracksV {
			iDyn *= scale
		}
		out[i] = iDyn + iLeak
	}
	return out
}
