// Package pds composes complete power-delivery subsystems — off-chip VRM +
// PDN + optional on-chip IVRs + digital loads — and evaluates them the way
// the paper's case study does (§5): workload-driven voltage-noise traces
// per configuration (Figs. 10-11), guardband extraction, and the final
// source-to-core power breakdown and delivery efficiency (Fig. 13).
//
// Configurations compared:
//
//   - Off-chip VRM: conversion at the board, the full PDN carries the core
//     current at core voltage — large IR drop and the package-resonance
//     first droop set a wide guardband.
//   - Centralized / distributed IVRs: the PDN carries current at the board
//     voltage (3.3 V), an on-chip SC converter regulates near the load, and
//     distributing N IVRs shrinks the residual on-chip grid impedance per
//     core by ~1/N — the mechanism behind the paper's finding that four
//     distributed IVRs minimize noise.
package pds

import (
	"context"
	"fmt"
	"sync"

	"ivory/internal/dynamic"
	"ivory/internal/ldo"
	"ivory/internal/numeric"
	"ivory/internal/pdn"
	"ivory/internal/sc"
	"ivory/internal/workload"
)

// System describes the manycore platform under study.
type System struct {
	// Cores is the number of SM-class cores (the paper uses 4).
	Cores int
	// TDPPerCore is each core's average power (W) at nominal voltage.
	TDPPerCore float64
	// VNominal is the core's nominal supply (V).
	VNominal float64
	// VSource is the board supply feeding the PDS (V).
	VSource float64
	// Load is the per-core current model.
	Load workload.LoadModel
	// GridR and GridL are the on-chip grid impedance from a centralized
	// regulation point to a core; distributing N IVRs divides both by N.
	GridR, GridL float64
	// Network is the off-chip PDN (board + package + die).
	Network *pdn.Network
	// Seed makes workload synthesis reproducible.
	Seed int64
}

// Validate checks the system description.
func (s *System) Validate() error {
	if s.Cores < 1 {
		return fmt.Errorf("pds: need at least one core")
	}
	if s.TDPPerCore <= 0 || s.VNominal <= 0 || s.VSource <= s.VNominal {
		return fmt.Errorf("pds: TDPPerCore, VNominal must be positive and VSource above VNominal")
	}
	if err := s.Load.Validate(); err != nil {
		return err
	}
	if s.GridR < 0 || s.GridL < 0 {
		return fmt.Errorf("pds: negative grid impedance")
	}
	if s.Network == nil {
		return fmt.Errorf("pds: off-chip network is required")
	}
	return nil
}

// NoiseResult is the outcome of one configuration x benchmark simulation.
type NoiseResult struct {
	// Config names the PDS configuration ("off-chip VRM", "1 IVR", ...).
	Config string
	// Benchmark is the workload name.
	Benchmark string
	// Times and VCore sample the worst core's supply voltage. They are nil
	// when the simulation ran with SimOptions.KeepTrace false.
	Times, VCore []float64
	// VStats is the distribution summary of VCore, computed during the
	// simulation so it survives even when the trace itself is dropped.
	VStats numeric.Summary
	// NoiseVpp is max-min of VCore.
	NoiseVpp float64
	// WorstDroop is VNominal - min(VCore).
	WorstDroop float64
}

func (s *System) coreCurrents(src workload.Source, dt float64, n int, v float64) [][]float64 {
	out := make([][]float64, s.Cores)
	for c := 0; c < s.Cores; c++ {
		p := src.PowerTraceInto(nil, s.TDPPerCore, dt, n, benchStreamSeed(s.Seed, src.TraceName(), c))
		out[c] = s.Load.CurrentTrace(p, v)
	}
	return out
}

func sumTraces(traces [][]float64) []float64 {
	return sumTracesInto(nil, traces)
}

// sumTracesInto sums traces sample-wise into dst (grown when too small; may
// be nil). An empty trace set returns nil, matching sumTraces.
func sumTracesInto(dst []float64, traces [][]float64) []float64 {
	if len(traces) == 0 {
		return nil
	}
	n := len(traces[0])
	out := dst
	if cap(out) < n {
		out = make([]float64, n)
	} else {
		out = out[:n]
	}
	copy(out, traces[0])
	for _, tr := range traces[1:] {
		for i, v := range tr {
			out[i] += v
		}
	}
	return out
}

// gridDrop subtracts the local grid IR + L·di/dt drop of the first core's
// current from the regulated node voltage.
func gridDrop(vReg, iCore []float64, dt, r, l float64) []float64 {
	return gridDropInto(nil, vReg, iCore, dt, r, l)
}

// gridDropInto is gridDrop with buffer reuse (dst may be nil).
//
// The k=0 sample intentionally carries no inductive term: both transient
// models enter the trace in steady state at the initial load
// (pdn.TransientContext applies a DC initial condition; the SC loop starts settled at its
// reference), so the segment current is flat across the first sample
// boundary — i[-1] ≡ i[0] and di/dt = 0. Differencing against an artificial
// zero-current prior sample would instead inject a spurious L·i[0]/dt
// turn-on droop into every noise statistic. A unit test pins this contract.
func gridDropInto(dst, vReg, iCore []float64, dt, r, l float64) []float64 {
	out := dst
	if cap(out) < len(vReg) {
		out = make([]float64, len(vReg))
	} else {
		out = out[:len(vReg)]
	}
	for k := range vReg {
		drop := iCore[k] * r
		if k > 0 && l > 0 {
			drop += l * (iCore[k] - iCore[k-1]) / dt
		}
		out[k] = vReg[k] - drop
	}
	return out
}

// scratch holds the reusable buffers of one simulation: summed load
// currents, raw simulator output, decimated and derived traces, and the
// summary workspace. A zero scratch is ready to use; buffers grow on first
// use and are recycled afterwards. The Simulate*Context methods take one
// from scratchPool for the length of the call and put it back on return;
// nothing a result holds aliases it, so recycling is safe.
type scratch struct {
	total []float64     // summed load current
	ts    []float64     // PDN sample times
	vs    []float64     // PDN node voltages
	vReg  []float64     // decimated regulated voltage
	times []float64     // decimated sample times
	vCore []float64     // core voltage after grid drop
	stats []float64     // SummarizeInPlace workspace (gets permuted)
	tr    dynamic.Trace // SC simulator waveform
}

// scratchPool recycles simulation scratch across calls, fan-out cells and
// runs. Each in-flight simulation holds exactly one scratch, so the live
// set is bounded by the number of concurrent simulations.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// SimOptions controls one simulation call of the transient engine.
type SimOptions struct {
	// KeepTrace retains Times and VCore on the result. When false the
	// engine still fills VStats/NoiseVpp/WorstDroop but the result holds no
	// trace, so box-plot cells never retain the full waveform.
	KeepTrace bool
}

// grow returns a length-n slice backed by buf when its capacity suffices, or
// a fresh one otherwise. Contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// summarize fills the result's statistics from vCore via the scratch
// workspace (SummarizeInPlace permutes its input, so the trace is copied
// into scr.stats first) and, when requested, copies the trace out so the
// result never aliases scratch storage.
func (r *NoiseResult) summarize(scr *scratch, times, vCore []float64, vNom float64, keepTrace bool) {
	scr.stats = grow(scr.stats, len(vCore))
	copy(scr.stats, vCore)
	r.VStats = numeric.SummarizeInPlace(scr.stats)
	r.finishStats(vNom)
	if keepTrace {
		r.Times = append([]float64(nil), times...)
		r.VCore = append([]float64(nil), vCore...)
	}
}

// SimulateOffChipVRM produces the core voltage trace for the conventional
// configuration: regulation at the board, the PDN carrying the summed core
// current at core voltage. The VRM output is assumed ripple-free (paper
// §2.2), so all noise comes from PDN impedance. src is any workload.Source
// — a single Benchmark or a PhaseSchedule.
func (s *System) SimulateOffChipVRM(src workload.Source, T, dt float64) (*NoiseResult, error) {
	return s.SimulateOffChipVRMContext(context.Background(), src, T, dt, SimOptions{KeepTrace: true})
}

// SimulateOffChipVRMContext is SimulateOffChipVRM with cancellation (polled
// inside the transient integration, so a cancelled run stops mid-cell) and
// engine options. Returned Times/VCore are freshly allocated, never aliased
// to the pooled scratch the simulation ran on.
func (s *System) SimulateOffChipVRMContext(ctx context.Context, src workload.Source, T, dt float64, opt SimOptions) (*NoiseResult, error) {
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	return s.offChipVRM(ctx, scr, src, T, dt, opt)
}

func (s *System) offChipVRM(ctx context.Context, scr *scratch, src workload.Source, T, dt float64, opt SimOptions) (*NoiseResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := int(T / dt)
	if n < 16 {
		return nil, fmt.Errorf("pds: trace too short (%d samples)", n)
	}
	cores := s.coreCurrentsCached(src, dt, n, s.VNominal)
	if err := checkTraces(src, cores, n); err != nil {
		return nil, err
	}
	scr.total = sumTracesInto(scr.total, cores)
	load := dynamic.Sampled(scr.total, dt)
	ts, vs, err := s.Network.TransientContext(ctx, s.VNominal, func(t float64) float64 { return load(t) }, dt, T, scr.ts, scr.vs)
	if err != nil {
		return nil, err
	}
	scr.ts, scr.vs = ts, vs
	// Clip to n samples for uniformity.
	if len(vs) > n {
		ts, vs = ts[:n], vs[:n]
	}
	// Without on-chip regulation the full grid span from the C4 region to
	// the core applies (the same span a centralized IVR would see).
	scr.vCore = gridDropInto(scr.vCore, vs, cores[0][:len(vs)], dt, s.GridR, s.GridL)
	res := &NoiseResult{
		Config:    "off-chip VRM",
		Benchmark: src.TraceName(),
	}
	res.summarize(scr, ts, scr.vCore, s.VNominal, opt.KeepTrace)
	return res, nil
}

// SimulateIVR produces the core voltage trace for an n-IVR configuration.
// base is the total on-chip converter design (sized for the whole chip);
// it is split evenly across the n IVR instances, each serving Cores/n
// cores. The worst (first) core of the first IVR is traced: regulated IVR
// output minus its local grid drop of GridR/n, GridL/n.
func (s *System) SimulateIVR(base *sc.Design, nIVR int, src workload.Source, T, dt float64) (*NoiseResult, error) {
	return s.SimulateIVRContext(context.Background(), base, nIVR, src, T, dt, SimOptions{KeepTrace: true})
}

// SimulateIVRContext is SimulateIVR with cancellation (polled inside the SC
// simulator loop, so a cancelled run stops mid-cell) and engine options.
// Returned Times/VCore are freshly allocated, never aliased to the pooled
// scratch the simulation ran on.
func (s *System) SimulateIVRContext(ctx context.Context, base *sc.Design, nIVR int, src workload.Source, T, dt float64, opt SimOptions) (*NoiseResult, error) {
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	return s.ivr(ctx, scr, base, nIVR, src, T, dt, opt)
}

func (s *System) ivr(ctx context.Context, scr *scratch, base *sc.Design, nIVR int, src workload.Source, T, dt float64, opt SimOptions) (*NoiseResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if nIVR < 1 || nIVR > s.Cores {
		return nil, fmt.Errorf("pds: IVR count %d outside [1, %d]", nIVR, s.Cores)
	}
	if s.Cores%nIVR != 0 {
		return nil, fmt.Errorf("pds: %d IVRs cannot evenly serve %d cores", nIVR, s.Cores)
	}
	steps := int(T / dt)
	if steps < 16 {
		return nil, fmt.Errorf("pds: trace too short (%d samples)", steps)
	}
	// Split the total converter across instances.
	cfg := base.Config()
	cfg.CTotal /= float64(nIVR)
	cfg.GTotal /= float64(nIVR)
	cfg.CDecap /= float64(nIVR)
	if cfg.Interleave >= nIVR {
		cfg.Interleave /= nIVR
	}
	inst, err := sc.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("pds: per-IVR design: %w", err)
	}
	coresPerIVR := s.Cores / nIVR
	all := s.coreCurrentsCached(src, dt, steps, s.VNominal)
	if err := checkTraces(src, all, steps); err != nil {
		return nil, err
	}
	scr.total = sumTracesInto(scr.total, all[:coresPerIVR])
	ivrLoad := scr.total
	// Clock the hysteretic loop for the per-IVR worst-case load.
	_, iPk := numeric.MinMax(ivrLoad)
	params, err := dynamic.SCFromDesignAtLoad(inst, iPk*1.2)
	if err != nil {
		return nil, fmt.Errorf("pds: IVR cannot sustain the peak load: %w", err)
	}
	sim := &dynamic.SCSimulator{P: params}
	// The in-cycle step must resolve the interleaved pump ticks; refine
	// below the requested dt if needed and decimate afterwards.
	nSlices := params.Interleave
	if nSlices == 0 {
		nSlices = 1
	}
	tick := 1 / (params.FClk * float64(nSlices))
	factor := 1
	for dt/float64(factor) > tick {
		factor++
	}
	dtSim := dt / float64(factor)
	tr, err := sim.RunInto(ctx, &scr.tr, dynamic.Sampled(ivrLoad, dt), dynamic.Constant(s.VNominal), T, dtSim)
	if err != nil {
		return nil, err
	}
	scr.vReg = grow(scr.vReg, steps)
	scr.times = grow(scr.times, steps)
	for k := 0; k < steps; k++ {
		scr.vReg[k] = tr.V[k*factor]
		scr.times[k] = tr.Times[k*factor]
	}
	// Local grid segment shrinks with distribution.
	scr.vCore = gridDropInto(scr.vCore, scr.vReg, all[0][:steps], dt, s.GridR/float64(nIVR), s.GridL/float64(nIVR))
	name := fmt.Sprintf("%d distributed IVRs", nIVR)
	if nIVR == 1 {
		name = "centralized IVR"
	}
	res := &NoiseResult{
		Config:    name,
		Benchmark: src.TraceName(),
	}
	res.summarize(scr, scr.times, scr.vCore, s.VNominal, opt.KeepTrace)
	return res, nil
}

// checkTraces rejects a workload source that produced no (or truncated)
// traces — an invalid PhaseSchedule is the one Source that can fail
// synthesis, and it fails by returning nil.
func checkTraces(src workload.Source, traces [][]float64, n int) error {
	for _, tr := range traces {
		if len(tr) < n {
			return fmt.Errorf("pds: workload source %q produced no usable trace (invalid schedule?)", src.TraceName())
		}
	}
	return nil
}

// SimulateDigitalLDOContext runs the fourth delivery style: a centralized
// on-chip digital LDO regulating the cores from a board-supplied input
// rail at des.Config().VIn (the board VRM produces VNominal plus the LDO
// headroom; the input rail is assumed stiff, the same idealization the IVR
// path applies to its 3.3 V feed). The clocked bang-bang/proportional loop
// is simulated by dynamic.LDOSimulator at a step refined to resolve the
// controller sampling period, then decimated back to dt — mirroring the
// SC path's interleave-tick refinement. The worst (first) core sits behind
// the full-span grid segment, as with any centralized regulation point.
//
// Cancellation is polled before and after the dynamic run (the LDO
// simulator itself is not cancellable), so a cancelled sweep stops between
// cells rather than mid-integration.
func (s *System) SimulateDigitalLDOContext(ctx context.Context, des *ldo.Design, src workload.Source, T, dt float64, opt SimOptions) (*NoiseResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if des == nil {
		return nil, fmt.Errorf("pds: nil LDO design")
	}
	steps := int(T / dt)
	if steps < 16 {
		return nil, fmt.Errorf("pds: trace too short (%d samples)", steps)
	}
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	all := s.coreCurrentsCached(src, dt, steps, s.VNominal)
	if err := checkTraces(src, all, steps); err != nil {
		return nil, err
	}
	scr.total = sumTracesInto(scr.total, all)
	_, iPk := numeric.MinMax(scr.total)
	if iPk > des.MaxCurrent() {
		return nil, fmt.Errorf("pds: LDO cannot sustain the peak load: %.3g A exceeds the %.3g A dropout limit",
			iPk, des.MaxCurrent())
	}
	params := dynamic.LDOFromDesign(des)
	// Proportional multi-segment updates: the controller class the
	// paper-cited digital LDOs implement, and the one that can track
	// benchmark-scale load steps within a sampling period.
	params.Proportional = true
	sim := &dynamic.LDOSimulator{P: params}
	// The dynamic model requires the step to resolve the controller
	// sampling period; refine below the requested dt and decimate after.
	tick := 1 / params.FSample
	factor := 1
	for dt/float64(factor) > tick {
		factor++
	}
	dtSim := dt / float64(factor)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr, err := sim.Run(dynamic.Sampled(scr.total, dt), dynamic.Constant(s.VNominal), T, dtSim)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scr.vReg = grow(scr.vReg, steps)
	scr.times = grow(scr.times, steps)
	for k := 0; k < steps; k++ {
		scr.vReg[k] = tr.V[k*factor]
		scr.times[k] = tr.Times[k*factor]
	}
	scr.vCore = gridDropInto(scr.vCore, scr.vReg, all[0][:steps], dt, s.GridR, s.GridL)
	res := &NoiseResult{
		Config:    "digital LDO",
		Benchmark: src.TraceName(),
	}
	res.summarize(scr, scr.times, scr.vCore, s.VNominal, opt.KeepTrace)
	return res, nil
}

func (r *NoiseResult) finishStats(vNom float64) {
	if r.VStats.N == 0 {
		return
	}
	r.NoiseVpp = r.VStats.Max - r.VStats.Min
	r.WorstDroop = vNom - r.VStats.Min
}

// Stats returns the distribution summary of the core voltage (box-plot
// inputs for Fig. 10). It is computed during the simulation, so it remains
// available when the trace itself was dropped (SimOptions.KeepTrace false).
func (r *NoiseResult) Stats() numeric.Summary {
	if r.VStats.N > 0 {
		return r.VStats
	}
	return numeric.Summarize(r.VCore)
}

// Breakdown itemizes source-to-core power for one configuration (Fig. 13).
type Breakdown struct {
	// Config names the configuration.
	Config string
	// PCoreUseful is the computation power at nominal voltage (W).
	PCoreUseful float64
	// PMargin is the extra core power burned because the supply must sit
	// above nominal by the guardband (dynamic power rises ~quadratically).
	PMargin float64
	// PGridIR is on-chip grid conduction loss (W).
	PGridIR float64
	// PIVRLoss is the IVR conversion loss (W); zero for the off-chip case.
	PIVRLoss float64
	// PPDNIR is the off-chip board+package conduction loss (W).
	PPDNIR float64
	// PVRMLoss is the off-chip VRM conversion loss (W).
	PVRMLoss float64
	// PSource is the total power drawn from the source (W).
	PSource float64
	// Efficiency is PCoreUseful / PSource — the paper's power-delivery
	// efficiency metric.
	Efficiency float64
}

// BreakdownParams supplies the conversion efficiencies measured elsewhere.
type BreakdownParams struct {
	// Margin is the voltage guardband (V) from the noise analysis.
	Margin float64
	// IVREfficiency is the IVR conversion efficiency at the operating
	// point (0 for the off-chip configuration).
	IVREfficiency float64
	// VRMEfficiency is the off-chip VRM efficiency for the voltage it
	// must produce in this configuration.
	VRMEfficiency float64
	// NumIVRs is the distribution count (0 = off-chip configuration).
	NumIVRs int
	// Config labels the result.
	Config string
}

// PowerBreakdown computes the steady-state power ladder for one
// configuration at full activity.
func (s *System) PowerBreakdown(p BreakdownParams) (Breakdown, error) {
	if err := s.Validate(); err != nil {
		return Breakdown{}, err
	}
	if p.Margin < 0 {
		return Breakdown{}, fmt.Errorf("pds: negative margin")
	}
	if p.VRMEfficiency <= 0 || p.VRMEfficiency > 1 {
		return Breakdown{}, fmt.Errorf("pds: VRM efficiency %g outside (0, 1]", p.VRMEfficiency)
	}
	if p.NumIVRs > 0 && (p.IVREfficiency <= 0 || p.IVREfficiency > 1) {
		return Breakdown{}, fmt.Errorf("pds: IVR efficiency %g outside (0, 1]", p.IVREfficiency)
	}
	b := Breakdown{Config: p.Config}
	pCore := s.TDPPerCore * float64(s.Cores)
	b.PCoreUseful = pCore
	vOp := s.VNominal + p.Margin
	// Dynamic power scales with V² at fixed frequency; the load model's
	// leakage fraction scales faster but we fold it into the same factor.
	scale := vOp * vOp / (s.VNominal * s.VNominal)
	pCoreActual := pCore * scale
	b.PMargin = pCoreActual - pCore

	rPDN := s.Network.TotalR()
	if p.NumIVRs == 0 {
		// Board VRM converts source to vOp; PDN carries core current, and
		// each core still sits behind the full-span on-chip grid segment.
		iCore := pCoreActual / float64(s.Cores) / vOp
		b.PGridIR = float64(s.Cores) * iCore * iCore * s.GridR
		iPDN := pCoreActual / vOp
		b.PPDNIR = iPDN * iPDN * rPDN
		vrmOut := pCoreActual + b.PGridIR + b.PPDNIR
		b.PVRMLoss = vrmOut * (1 - p.VRMEfficiency) / p.VRMEfficiency
		b.PSource = vrmOut + b.PVRMLoss
	} else {
		// Per-core current through its local grid share.
		iCore := pCoreActual / float64(s.Cores) / vOp
		rGrid := s.GridR / float64(p.NumIVRs)
		b.PGridIR = float64(s.Cores) * iCore * iCore * rGrid
		ivrOut := pCoreActual + b.PGridIR
		b.PIVRLoss = ivrOut * (1 - p.IVREfficiency) / p.IVREfficiency
		ivrIn := ivrOut + b.PIVRLoss
		iPDN := ivrIn / s.VSource
		b.PPDNIR = iPDN * iPDN * rPDN
		vrmOut := ivrIn + b.PPDNIR
		b.PVRMLoss = vrmOut * (1 - p.VRMEfficiency) / p.VRMEfficiency
		b.PSource = vrmOut + b.PVRMLoss
	}
	b.Efficiency = b.PCoreUseful / b.PSource
	return b, nil
}

// PowerBreakdownLDO computes the power ladder for a centralized
// digital-LDO configuration: the board VRM converts the source down to the
// LDO input rail at vOp + headroomV, the PDN carries the chip current at
// that rail, and the LDO's dissipative conversion (pass-device dropout,
// quiescent and controller power — the efficiency ldo.Design.Evaluate
// measures) takes the place of the IVR loss. p.IVREfficiency carries the
// LDO efficiency; p.NumIVRs is ignored (the regulation point is
// centralized, so the full grid span applies).
func (s *System) PowerBreakdownLDO(p BreakdownParams, headroomV float64) (Breakdown, error) {
	if err := s.Validate(); err != nil {
		return Breakdown{}, err
	}
	if p.Margin < 0 {
		return Breakdown{}, fmt.Errorf("pds: negative margin")
	}
	if headroomV <= 0 {
		return Breakdown{}, fmt.Errorf("pds: LDO headroom %g must be positive", headroomV)
	}
	if p.VRMEfficiency <= 0 || p.VRMEfficiency > 1 {
		return Breakdown{}, fmt.Errorf("pds: VRM efficiency %g outside (0, 1]", p.VRMEfficiency)
	}
	if p.IVREfficiency <= 0 || p.IVREfficiency > 1 {
		return Breakdown{}, fmt.Errorf("pds: LDO efficiency %g outside (0, 1]", p.IVREfficiency)
	}
	b := Breakdown{Config: p.Config}
	pCore := s.TDPPerCore * float64(s.Cores)
	b.PCoreUseful = pCore
	vOp := s.VNominal + p.Margin
	scale := vOp * vOp / (s.VNominal * s.VNominal)
	pCoreActual := pCore * scale
	b.PMargin = pCoreActual - pCore

	// Centralized regulation: every core behind the full-span grid segment.
	iCore := pCoreActual / float64(s.Cores) / vOp
	b.PGridIR = float64(s.Cores) * iCore * iCore * s.GridR
	ldoOut := pCoreActual + b.PGridIR
	b.PIVRLoss = ldoOut * (1 - p.IVREfficiency) / p.IVREfficiency
	ldoIn := ldoOut + b.PIVRLoss
	// The PDN carries the chip current at the LDO input rail — barely above
	// core voltage, so unlike the 3.3 V IVR feed the conduction loss stays
	// off-chip-VRM-like. This is the structural handicap of hybrid LDO
	// rails the sweep quantifies.
	vIn := vOp + headroomV
	iPDN := ldoIn / vIn
	b.PPDNIR = iPDN * iPDN * s.Network.TotalR()
	vrmOut := ldoIn + b.PPDNIR
	b.PVRMLoss = vrmOut * (1 - p.VRMEfficiency) / p.VRMEfficiency
	b.PSource = vrmOut + b.PVRMLoss
	b.Efficiency = b.PCoreUseful / b.PSource
	return b, nil
}
