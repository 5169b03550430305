// Package pds composes complete power-delivery subsystems — off-chip VRM +
// PDN + optional on-chip IVRs + digital loads — and evaluates them the way
// the paper's case study does (§5): workload-driven voltage-noise traces
// per configuration (Figs. 10-11), guardband extraction, and the final
// source-to-core power breakdown and delivery efficiency (Fig. 13).
//
// Delivery styles compared (Delivery names each one):
//
//   - Off-chip VRM: conversion at the board, the full PDN carries the core
//     current at core voltage — large IR drop and the package-resonance
//     first droop set a wide guardband.
//   - Centralized / distributed IVRs: the PDN carries current at the board
//     voltage (3.3 V), an on-chip SC converter regulates near the load, and
//     distributing N IVRs shrinks the residual on-chip grid impedance per
//     core by ~1/N — the mechanism behind the paper's finding that four
//     distributed IVRs minimize noise.
//   - Digital LDO: a centralized on-chip LDO fed from a board rail just
//     above core voltage — a fast loop, but dissipative conversion and a
//     PDN that still carries the chip current near core voltage.
package pds

import (
	"context"
	"fmt"
	"sync"

	"ivory/internal/buck"
	"ivory/internal/dynamic"
	"ivory/internal/ivr"
	"ivory/internal/ldo"
	"ivory/internal/numeric"
	"ivory/internal/pdn"
	"ivory/internal/sc"
	"ivory/internal/tech"
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
	// Config names the delivery style (Delivery.Name).
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
// use and are recycled afterwards. Simulate takes one from scratchPool
// for the length of the call and puts it back on return;
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

// Delivery selects how a System's cores are regulated. The zero value is
// the off-chip VRM; IVRs >= 1 with SC is a centralized (1) or distributed
// (N) IVR configuration; LDO with HeadroomV is a centralized digital LDO.
type Delivery struct {
	// IVRs is the on-chip SC instance count: 1 regulates centrally, N >= 2
	// splits the converter into N instances that each serve Cores/N cores
	// behind 1/N of the grid span.
	IVRs int
	// SC is the chip-level converter (sized for the whole chip) that the IVR
	// instances split evenly. Simulate requires it when IVRs >= 1.
	SC *sc.Design
	// LDO is the centralized digital LDO, fed from a board rail HeadroomV
	// above the operating voltage. Setting either field selects the LDO
	// style; PowerBreakdown needs only the headroom.
	LDO       *ldo.Design
	HeadroomV float64
}

func (d Delivery) isLDO() bool { return d.LDO != nil || d.HeadroomV != 0 }

// Name is the configuration label results carry.
func (d Delivery) Name() string {
	switch {
	case d.isLDO():
		return "digital LDO"
	case d.IVRs == 0:
		return "off-chip VRM"
	case d.IVRs == 1:
		return "centralized IVR"
	}
	return fmt.Sprintf("%d distributed IVRs", d.IVRs)
}

// check validates the delivery style against the core count.
func (d Delivery) check(cores int) error {
	if d.isLDO() {
		if d.IVRs != 0 {
			return fmt.Errorf("pds: a delivery takes IVRs or a digital LDO, not both")
		}
		if d.HeadroomV <= 0 {
			return fmt.Errorf("pds: LDO headroom %g must be positive", d.HeadroomV)
		}
		return nil
	}
	if d.IVRs == 0 {
		return nil
	}
	if d.IVRs < 1 || d.IVRs > cores {
		return fmt.Errorf("pds: IVR count %d outside [1, %d]", d.IVRs, cores)
	}
	if cores%d.IVRs != 0 {
		return fmt.Errorf("pds: %d IVRs cannot evenly serve %d cores", d.IVRs, cores)
	}
	return nil
}

// share is the number of regulation points the cores are split across: N
// distributed IVRs divide the grid span and the served cores by N.
func (d Delivery) share() int { return max(d.IVRs, 1) }

// Regulator returns the on-chip regulator's die area (m²) and conversion
// efficiency at iLoad; both are zero for the off-chip VRM.
func (d Delivery) Regulator(iLoad float64) (areaM2, efficiency float64, err error) {
	var m ivr.Metrics
	switch {
	case d.LDO != nil:
		areaM2 = d.LDO.Area()
		m, err = d.LDO.Evaluate(iLoad)
	case d.IVRs > 0 && d.SC != nil:
		areaM2 = d.SC.Area()
		m, err = d.SC.Evaluate(iLoad)
	}
	return areaM2, m.Efficiency, err
}

// Simulate produces the worst (first) core's voltage trace under one
// delivery style; src is any workload.Source — a single Benchmark or a
// PhaseSchedule. The regulation point's output is the board VRM's PDN
// node (the VRM itself ripple-free, paper §2.2), the hysteretic SC loop of
// one IVR instance, or the clocked LDO loop; the core sits behind that
// point's share of the on-chip grid. Both on-chip feeds (the 3.3 V IVR
// rail and the LDO input rail) are assumed stiff.
//
// ctx is polled inside the PDN, SC and LDO integration loops, so a
// cancelled run stops mid-cell. Returned Times/VCore are freshly allocated, never
// aliased to the pooled scratch the simulation ran on.
func (s *System) Simulate(ctx context.Context, d Delivery, src workload.Source, T, dt float64, opt SimOptions) (*NoiseResult, error) {
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	return s.simulate(ctx, scr, d, src, T, dt, opt)
}

func (s *System) simulate(ctx context.Context, scr *scratch, d Delivery, src workload.Source, T, dt float64, opt SimOptions) (*NoiseResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := d.check(s.Cores); err != nil {
		return nil, err
	}
	if d.IVRs > 0 && d.SC == nil {
		return nil, fmt.Errorf("pds: nil IVR design")
	}
	if d.isLDO() && d.LDO == nil {
		return nil, fmt.Errorf("pds: nil LDO design")
	}
	steps := int(T / dt)
	if steps < 16 {
		return nil, fmt.Errorf("pds: trace too short (%d samples)", steps)
	}
	var inst *sc.Design
	if d.IVRs > 0 {
		// Split the total converter across instances.
		cfg := d.SC.Config()
		cfg.CTotal /= float64(d.IVRs)
		cfg.GTotal /= float64(d.IVRs)
		cfg.CDecap /= float64(d.IVRs)
		if cfg.Interleave >= d.IVRs {
			cfg.Interleave /= d.IVRs
		}
		var err error
		if inst, err = sc.New(cfg); err != nil {
			return nil, fmt.Errorf("pds: per-IVR design: %w", err)
		}
	}
	all := s.coreCurrentsCached(src, dt, steps, s.VNominal)
	if err := checkTraces(src, all, steps); err != nil {
		return nil, err
	}
	scr.total = sumTracesInto(scr.total, all[:s.Cores/d.share()])
	load := dynamic.Sampled(scr.total, dt)
	vRef := dynamic.Constant(s.VNominal)

	var times, vReg []float64
	switch {
	case inst != nil:
		// Clock the hysteretic loop for the per-IVR worst-case load; the
		// in-cycle step must resolve the interleaved pump ticks.
		_, iPk := numeric.MinMax(scr.total)
		params, err := dynamic.SCFromDesignAtLoad(inst, iPk*1.2)
		if err != nil {
			return nil, fmt.Errorf("pds: IVR cannot sustain the peak load: %w", err)
		}
		sim := &dynamic.SCSimulator{P: params}
		nSlices := params.Interleave
		if nSlices == 0 {
			nSlices = 1
		}
		tick := 1 / (params.FClk * float64(nSlices))
		if err := scr.refined(dt, tick, steps, func(dtSim float64) (*dynamic.Trace, error) {
			return sim.RunInto(ctx, &scr.tr, load, vRef, T, dtSim)
		}); err != nil {
			return nil, err
		}
		times, vReg = scr.times, scr.vReg
	case d.isLDO():
		_, iPk := numeric.MinMax(scr.total)
		if iPk > d.LDO.MaxCurrent() {
			return nil, fmt.Errorf("pds: LDO cannot sustain the peak load: %.3g A exceeds the %.3g A dropout limit",
				iPk, d.LDO.MaxCurrent())
		}
		params := dynamic.LDOFromDesign(d.LDO)
		// Proportional multi-segment updates: the controller class the
		// paper-cited digital LDOs implement, and the one that can track
		// benchmark-scale load steps within a sampling period.
		params.Proportional = true
		sim := &dynamic.LDOSimulator{P: params}
		if err := scr.refined(dt, 1/params.FSample, steps, func(dtSim float64) (*dynamic.Trace, error) {
			return sim.Run(ctx, load, vRef, T, dtSim)
		}); err != nil {
			return nil, err
		}
		times, vReg = scr.times, scr.vReg
	default:
		// Regulation at the board: the PDN carries the summed core current
		// at core voltage.
		ts, vs, err := s.Network.TransientContext(ctx, s.VNominal, func(t float64) float64 { return load(t) }, dt, T, scr.ts, scr.vs)
		if err != nil {
			return nil, err
		}
		scr.ts, scr.vs = ts, vs
		// Clip to steps samples for uniformity.
		if len(vs) > steps {
			ts, vs = ts[:steps], vs[:steps]
		}
		times, vReg = ts, vs
	}
	share := float64(d.share())
	scr.vCore = gridDropInto(scr.vCore, vReg, all[0][:len(vReg)], dt, s.GridR/share, s.GridL/share)
	res := &NoiseResult{
		Config:    d.Name(),
		Benchmark: src.TraceName(),
	}
	res.summarize(scr, times, scr.vCore, s.VNominal, opt.KeepTrace)
	return res, nil
}

// refined runs a clocked regulator model at the coarsest step dt/k (k a
// positive integer) that resolves tick, then decimates its waveform back to
// steps samples at dt into scr.times and scr.vReg.
func (scr *scratch) refined(dt, tick float64, steps int, run func(dtSim float64) (*dynamic.Trace, error)) error {
	factor := 1
	for dt/float64(factor) > tick {
		factor++
	}
	tr, err := run(dt / float64(factor))
	if err != nil {
		return err
	}
	scr.vReg = grow(scr.vReg, steps)
	scr.times = grow(scr.times, steps)
	for k := 0; k < steps; k++ {
		scr.vReg[k] = tr.V[k*factor]
		scr.times[k] = tr.Times[k*factor]
	}
	return nil
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
	// PIVRLoss is the on-chip (IVR or LDO) conversion loss (W); zero for
	// the off-chip VRM.
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

// ivrFeedEfficiency is the board stage charged to IVR configurations: the
// 3.3 V rail reaches the IVRs through the PDN with only light conditioning.
const ivrFeedEfficiency = 0.97

// PowerBreakdown computes the steady-state power ladder for one delivery
// style at full activity, with the supply raised by margin (the guardband
// from the noise analysis). convEfficiency is the on-chip regulator's
// conversion efficiency at the operating point (IVR or LDO); the off-chip
// VRM ignores it. The board stage is charged with BoardVRMEfficiency at the
// voltage it must produce — the operating voltage for the off-chip VRM,
// the LDO input rail for the digital LDO — and with a light-conditioning
// 0.97 for the IVRs' 3.3 V feed.
func (s *System) PowerBreakdown(d Delivery, margin, convEfficiency float64) (Breakdown, error) {
	if err := s.Validate(); err != nil {
		return Breakdown{}, err
	}
	if margin < 0 {
		return Breakdown{}, fmt.Errorf("pds: negative margin")
	}
	if err := d.check(s.Cores); err != nil {
		return Breakdown{}, err
	}
	pCore := s.TDPPerCore * float64(s.Cores)
	vOp := s.VNominal + margin
	// The PDN carries current at the rail the board stage produces.
	vRail, vrmEff := s.VSource, ivrFeedEfficiency
	if d.IVRs == 0 {
		vRail = vOp
		if d.isLDO() {
			vRail += d.HeadroomV
		}
		var err error
		if vrmEff, err = BoardVRMEfficiency(s.VSource, vRail, pCore); err != nil {
			return Breakdown{}, err
		}
	}
	if vrmEff <= 0 || vrmEff > 1 {
		return Breakdown{}, fmt.Errorf("pds: VRM efficiency %g outside (0, 1]", vrmEff)
	}
	onChip := d.IVRs > 0 || d.isLDO()
	if onChip && (convEfficiency <= 0 || convEfficiency > 1) {
		kind := "IVR"
		if d.isLDO() {
			kind = "LDO"
		}
		return Breakdown{}, fmt.Errorf("pds: %s efficiency %g outside (0, 1]", kind, convEfficiency)
	}

	b := Breakdown{Config: d.Name(), PCoreUseful: pCore}
	// Dynamic power scales with V² at fixed frequency; the load model's
	// leakage fraction scales faster but we fold it into the same factor.
	scale := vOp * vOp / (s.VNominal * s.VNominal)
	pCoreActual := pCore * scale
	b.PMargin = pCoreActual - pCore
	// Per-core current through its share of the on-chip grid.
	iCore := pCoreActual / float64(s.Cores) / vOp
	b.PGridIR = float64(s.Cores) * iCore * iCore * (s.GridR / float64(d.share()))
	out := pCoreActual + b.PGridIR // delivered by the regulation point
	pPDN := pCoreActual            // the off-chip VRM's PDN carries the core current
	if onChip {
		b.PIVRLoss = out * (1 - convEfficiency) / convEfficiency
		out += b.PIVRLoss
		pPDN = out
	}
	// At the LDO input rail — barely above core voltage — the conduction
	// loss stays off-chip-VRM-like, unlike at the 3.3 V IVR feed: the
	// structural handicap of hybrid LDO rails.
	iPDN := pPDN / vRail
	b.PPDNIR = iPDN * iPDN * s.Network.TotalR()
	vrmOut := out + b.PPDNIR
	b.PVRMLoss = vrmOut * (1 - vrmEff) / vrmEff
	b.PSource = vrmOut + b.PVRMLoss
	b.Efficiency = b.PCoreUseful / b.PSource
	return b, nil
}

// BoardVRMEfficiency evaluates an off-chip VRM — a surface-mount buck at
// low frequency, the same buck model on-chip designs use (the paper's
// commensurate-modeling principle) — producing vOut at power pOut from the
// board rail vIn.
func BoardVRMEfficiency(vIn, vOut, pOut float64) (float64, error) {
	iLoad := pOut / vOut
	d, err := buck.New(buck.Config{
		Node:       tech.MustLookup("130nm"), // board-class silicon
		Inductor:   tech.SurfaceMount,
		OutCap:     tech.MIMCap,
		VIn:        vIn,
		VOut:       vOut,
		L:          300e-9,
		COut:       20e-6,
		FSw:        2e6,
		GHigh:      50,
		GLow:       80,
		Interleave: 4,
	})
	if err != nil {
		return 0, err
	}
	if d, err = d.OptimizeConductances(iLoad); err != nil {
		return 0, err
	}
	m, err := d.Evaluate(iLoad)
	if err != nil {
		return 0, err
	}
	// Board-level realities the on-chip model does not include: the input
	// filter network and sense/trace resistance between the VRM and the
	// board plane (~1.2 mOhm at the output current), plus the analog
	// controller's quiescent power.
	rTrace := 1.2e-3
	pTrace := iLoad * iLoad * rTrace
	pCtl := 0.25
	loss := m.Loss.Total() + pTrace + pCtl
	return m.POut / (m.POut + loss), nil
}
