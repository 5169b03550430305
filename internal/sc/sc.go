// Package sc implements Ivory's static model of switched-capacitor (SC)
// integrated voltage regulators, following the Seeman charge-multiplier
// methodology the paper adopts (its Eq. 1):
//
//	R_SSL = (Σ a_c,i)² / (C_tot · f_sw)     slow-switching-limit impedance
//	R_FSL = (Σ a_r,i)² / (G_tot · D_cyc)    fast-switching-limit impedance
//	R_out = sqrt(R_SSL² + R_FSL²)
//
// The model regulates the output by switching-frequency modulation: given a
// target V_out below the ideal M·V_in, the design's R_SSL (and hence f_sw)
// is chosen so that V_out = M·V_in − I_load·R_out at the evaluated load.
// On top of the intrinsic I²·R_out loss it accounts for gate-drive,
// drain/bottom-plate parasitic, leakage, and controller losses, all derived
// from the technology database, plus die area. Interleaving divides the
// converter into N phase-shifted slices, leaving static efficiency
// essentially unchanged while dividing the output ripple.
//
// A design-space sweep sizes many designs of one topology at one input
// voltage. Their device mapping — the device, stack depth and conductance
// weight of every switch — depends on neither the capacitance nor the
// conductance total, so the sweep builds it once with PlanSwitches and
// sizes each configuration with SwitchPlan.New; New does both steps for a
// single design. Design.WithInterleave re-slices a sized design without
// sizing it again.
package sc

import (
	"fmt"
	"math"

	"ivory/internal/ivr"
	"ivory/internal/numeric"
	"ivory/internal/tech"
	"ivory/internal/topology"
)

// Config parameterizes an SC converter design point.
type Config struct {
	// Analysis is the topology characterization (ratio + multipliers).
	Analysis *topology.Analysis
	// Node is the technology node the converter is built in.
	Node *tech.Node
	// CapKind selects the flying-capacitor flavour.
	CapKind tech.CapacitorKind
	// VIn is the input voltage (V).
	VIn float64
	// VOut is the regulation target (V); must be below Analysis.Ratio*VIn.
	VOut float64
	// CTotal is the total flying capacitance (F).
	CTotal float64
	// GTotal is the total switch conductance (S).
	GTotal float64
	// Duty is the phase duty cycle; defaults to 0.5.
	Duty float64
	// Interleave is the number of phase-shifted slices; defaults to 1.
	Interleave int
	// CDecap is explicit output decoupling capacitance (F).
	CDecap float64
	// FSwMax caps the controller's switching frequency (Hz); defaults to
	// 2 GHz, beyond which gate-drive modeling assumptions break down.
	FSwMax float64
	// FSwMin floors the frequency-modulation feedback (Hz); defaults to
	// 100 kHz.
	FSwMin float64
	// BottomPlateLossFactor scales the raw bottom-plate parasitic loss to
	// model charge-recycling techniques (Tong et al., the paper's ref [4]).
	// Zero selects the default of 0.3 (70 % recycled); set to 1 for a
	// design without recycling.
	BottomPlateLossFactor float64
	// UniformSwitchAllocation disables the cost-aware conductance split
	// and uses the plain G_i ∝ a_r,i rule of the basic optimal-sizing
	// derivation. With homogeneous devices the two coincide; with mixed
	// core/I-O switches the cost-aware split is strictly better. Exposed
	// for the ablation study.
	UniformSwitchAllocation bool
}

// Design is a validated, device-mapped SC converter ready for evaluation.
type Design struct {
	cfg Config

	// Per-switch device mapping, shared read-only with the SwitchPlan the
	// design was sized from.
	devs   []tech.SwitchDevice
	stacks []int
	gShare []float64 // per-switch conductance (S)
	widths []float64 // per-switch total width (m)

	// Per-cap allocation.
	capOpt tech.CapacitorOption
	capC   []float64 // per-cap capacitance (F)

	decapOpt tech.CapacitorOption
}

const (
	defaultFSwMax    = 2e9
	defaultFSwMin    = 100e3
	defaultBPRecycle = 0.3
	driverTax        = 1.3  // gate-drive loss multiplier for the driver chain
	routingTax       = 1.10 // area multiplier for routing/keep-out
	ctrlGates        = 1500 // feedback controller complexity
	clockGates       = 400  // clock generator + per-slice distribution
	ctrlStaticW      = 50e-6
)

// New validates the configuration, allocates capacitance and conductance
// across elements in proportion to their charge multipliers (the
// loss-optimal split), and maps every switch onto the cheapest technology
// device able to block its off-state voltage.
func New(cfg Config) (*Design, error) {
	d, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	p, err := PlanSwitches(d.cfg.Analysis, d.cfg.Node, d.cfg.VIn)
	if err != nil {
		return nil, err
	}
	return p.size(d)
}

// prepare validates and defaults the configuration and allocates the
// flying capacitance: every step of New that precedes the switch mapping.
func prepare(cfg Config) (*Design, error) {
	if cfg.Analysis == nil {
		return nil, fmt.Errorf("sc: Config.Analysis is required")
	}
	if cfg.Node == nil {
		return nil, fmt.Errorf("sc: Config.Node is required")
	}
	if cfg.VIn <= 0 || cfg.VOut <= 0 {
		return nil, fmt.Errorf("sc: voltages must be positive (VIn=%g, VOut=%g)", cfg.VIn, cfg.VOut)
	}
	if cfg.CTotal <= 0 || cfg.GTotal <= 0 {
		return nil, fmt.Errorf("sc: CTotal and GTotal must be positive")
	}
	if cfg.Duty == 0 {
		cfg.Duty = 0.5
	}
	if cfg.Duty <= 0 || cfg.Duty > 1 {
		return nil, fmt.Errorf("sc: duty cycle %g outside (0, 1]", cfg.Duty)
	}
	if cfg.Interleave == 0 {
		cfg.Interleave = 1
	}
	if cfg.Interleave < 1 {
		return nil, fmt.Errorf("sc: interleave %d must be >= 1", cfg.Interleave)
	}
	if cfg.FSwMax == 0 {
		cfg.FSwMax = defaultFSwMax
	}
	if cfg.FSwMin == 0 {
		cfg.FSwMin = defaultFSwMin
	}
	if cfg.BottomPlateLossFactor == 0 {
		cfg.BottomPlateLossFactor = defaultBPRecycle
	}
	if cfg.BottomPlateLossFactor < 0 || cfg.BottomPlateLossFactor > 1 {
		return nil, fmt.Errorf("sc: BottomPlateLossFactor %g outside [0, 1]", cfg.BottomPlateLossFactor)
	}
	ideal := cfg.Analysis.Ratio * cfg.VIn
	if cfg.VOut >= ideal {
		return nil, ivr.Infeasible(cfg.Analysis.Name,
			"target VOut %.3g V not below ideal output %.3g V (= %.3g * %.3g V)",
			cfg.VOut, ideal, cfg.Analysis.Ratio, cfg.VIn)
	}
	capOpt, err := cfg.Node.Capacitor(cfg.CapKind)
	if err != nil {
		return nil, err
	}
	d := &Design{cfg: cfg, capOpt: capOpt}
	// Decap uses the densest low-voltage option available: deep trench if
	// present, MOS otherwise.
	if dt, err := cfg.Node.Capacitor(tech.DeepTrench); err == nil {
		d.decapOpt = dt
	} else {
		d.decapOpt = capOpt
	}
	an := cfg.Analysis
	// Capacitance allocation proportional to |a_c| (optimal SSL split).
	d.capC = make([]float64, an.NumCaps)
	for i, m := range an.CapMultipliers {
		d.capC[i] = cfg.CTotal * m / an.SumAC
		// Voltage-rating check against the capacitor option.
		if v := an.CapVoltages[i] * cfg.VIn; v > capOpt.VMax*1.001 {
			return nil, ivr.Infeasible(an.Name,
				"capacitor %d holds %.2f V, above the %.2f V rating of %v caps", i, v, capOpt.VMax, cfg.CapKind)
		}
	}
	return d, nil
}

// SwitchPlan is the part of SC sizing that depends only on the topology,
// the node and the input voltage: the device and stack depth of every
// switch and the conductance weights of both allocation policies. A plan
// and the slices it shares with the designs sized from it are never
// written after PlanSwitches returns, so one plan serves any number of
// goroutines.
type SwitchPlan struct {
	an   *topology.Analysis
	node *tech.Node
	vin  float64

	devs   []tech.SwitchDevice
	stacks []int
	// costAware and uniform are the normalized per-switch conductance
	// weights of the two allocation policies (Config.UniformSwitchAllocation).
	costAware, uniform []float64
	// costPerG is the switch area per siemens of G_total under the
	// cost-aware split: Σ w_i · s_i² · RonW_i · AreaPerW_i.
	costPerG float64
}

// PlanSwitches maps each switch of the topology onto a technology device
// (respecting its blocking voltage) and computes the conductance allocation
// weights. Weights follow the loss-optimal split for heterogeneous
// switches: G_i ∝ a_r,i / sqrt(κ_i), where κ_i = stack²·RonW·CgW·Vdrive² is
// the switch's conduction-times-gate-energy cost. For a topology whose
// switches all use the same device this reduces to the paper's G_i ∝ a_r,i
// split and reproduces R_FSL = (Σa_r)²/(G_tot·D) exactly. The uniform
// policy keeps the plain G_i ∝ a_r,i split.
//
//lint:ignore nonfinite every design sized from the plan checks its switch widths and GTotalForArea its result
func PlanSwitches(an *topology.Analysis, node *tech.Node, vin float64) (*SwitchPlan, error) {
	if an == nil || node == nil {
		return nil, fmt.Errorf("sc: PlanSwitches needs a topology analysis and a node")
	}
	p := &SwitchPlan{
		an: an, node: node, vin: vin,
		devs:      make([]tech.SwitchDevice, an.NumSwitches),
		stacks:    make([]int, an.NumSwitches),
		costAware: make([]float64, an.NumSwitches),
		uniform:   make([]float64, an.NumSwitches),
	}
	costSum, uniformSum := 0.0, 0.0
	for i, m := range an.SwitchMultipliers {
		vBlock := an.SwitchBlockVoltages[i] * vin
		if vBlock < 0.1*vin {
			vBlock = 0.1 * vin // floor: every switch sees some stress
		}
		dev, stack, err := node.SwitchForVoltage(vBlock)
		if err != nil {
			return nil, err
		}
		p.devs[i] = dev
		p.stacks[i] = stack
		vdr := dev.VDrive
		kappa := float64(stack*stack) * dev.ROnWidth * dev.CGatePerWidth * vdr * vdr
		p.costAware[i] = m / math.Sqrt(kappa)
		p.uniform[i] = m
		costSum += p.costAware[i]
		uniformSum += m
	}
	if costSum <= 0 || uniformSum <= 0 {
		return nil, fmt.Errorf("sc: degenerate switch multipliers in %s", an.Name)
	}
	for i := range p.devs {
		p.costAware[i] /= costSum
		p.uniform[i] /= uniformSum
		p.costPerG += p.costAware[i] * float64(p.stacks[i]*p.stacks[i]) * p.devs[i].ROnWidth * p.devs[i].AreaPerWidth
	}
	return p, nil
}

// New sizes cfg against the plan: it equals the package-level New(cfg)
// bit for bit, without re-deriving the switch mapping. cfg must name the
// plan's topology analysis, node and input voltage.
func (p *SwitchPlan) New(cfg Config) (*Design, error) {
	d, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Analysis != p.an || cfg.Node != p.node || math.Float64bits(cfg.VIn) != math.Float64bits(p.vin) {
		return nil, fmt.Errorf("sc: switch plan for %s on %s at %g V does not match config (%s on %s at %g V)",
			p.an.Name, p.node.Name, p.vin, cfg.Analysis.Name, cfg.Node.Name, cfg.VIn)
	}
	return p.size(d)
}

// size allocates the conductance total across the plan's switches under
// the design's allocation policy and derives the switch widths.
func (p *SwitchPlan) size(d *Design) (*Design, error) {
	weights := p.costAware
	if d.cfg.UniformSwitchAllocation {
		weights = p.uniform
	}
	d.devs = p.devs
	d.stacks = p.stacks
	d.gShare = make([]float64, len(p.devs))
	d.widths = make([]float64, len(p.devs))
	for i := range p.devs {
		d.gShare[i] = d.cfg.GTotal * weights[i]
		// Stack of s devices in series: total R = s * RonW/W.
		d.widths[i] = float64(p.stacks[i]) * p.devs[i].ROnWidth * d.gShare[i]
	}
	if err := numeric.AllFinite("sc: capacitor allocation", d.capC...); err != nil {
		return nil, err
	}
	if err := numeric.AllFinite("sc: switch widths", d.widths...); err != nil {
		return nil, err
	}
	return d, nil
}

// GTotalForArea returns the total conductance achievable with the given
// switch area (m²) under the plan's device mapping. Conductance shares
// follow the cost-aware split, so area relates to G_total through the
// weighted stack costs: area = G_total · Σ w_i · s_i² · RonW_i · AreaPerW_i.
func (p *SwitchPlan) GTotalForArea(areaM2 float64) (float64, error) {
	if areaM2 <= 0 {
		return 0, fmt.Errorf("sc: switch area must be positive")
	}
	if p.costPerG <= 0 {
		return 0, fmt.Errorf("sc: degenerate switch multipliers")
	}
	gTotal := areaM2 / p.costPerG
	if err := numeric.Finite("sc: G_total for switch area", gTotal); err != nil {
		return 0, err
	}
	return gTotal, nil
}

// Config returns the (defaulted) configuration of the design.
func (d *Design) Config() Config { return d.cfg }

// RSSL returns the slow-switching-limit output impedance at f_sw.
func (d *Design) RSSL(fsw float64) float64 {
	an := d.cfg.Analysis
	return an.SumAC * an.SumAC / (d.cfg.CTotal * fsw)
}

// RFSL returns the fast-switching-limit output impedance:
// R_FSL = (1/D)·Σ a_r,i²/G_i with the design's conductance allocation,
// which equals the paper's (Σa_r)²/(G_tot·D) when all switches share one
// device class.
func (d *Design) RFSL() float64 {
	an := d.cfg.Analysis
	sum := 0.0
	for i, m := range an.SwitchMultipliers {
		if d.gShare[i] <= 0 {
			continue
		}
		sum += m * m / d.gShare[i]
	}
	return sum / d.cfg.Duty
}

// ROut returns the total output impedance at f_sw.
func (d *Design) ROut(fsw float64) float64 {
	rssl := d.RSSL(fsw)
	rfsl := d.RFSL()
	return math.Sqrt(rssl*rssl + rfsl*rfsl)
}

// RegulationFrequency returns the switching frequency at which the
// converter's droop places V_out exactly at the target for load current
// iLoad — the steady-state operating point of the frequency-modulation
// feedback loop. It errors when the target is unreachable (droop exceeds
// the FSL bound) or needs a frequency above FSwMax.
func (d *Design) RegulationFrequency(iLoad float64) (float64, error) {
	cfg := d.cfg
	an := cfg.Analysis
	if iLoad <= 0 {
		return cfg.FSwMin, nil
	}
	rReq := (an.Ratio*cfg.VIn - cfg.VOut) / iLoad
	rfsl := d.RFSL()
	if rReq <= rfsl {
		return 0, ivr.Infeasible(an.Name,
			"required output impedance %.3g ohm below FSL bound %.3g ohm at %.3g A — increase GTotal or lower VOut",
			rReq, rfsl, iLoad)
	}
	rssl := math.Sqrt(rReq*rReq - rfsl*rfsl)
	fsw := an.SumAC * an.SumAC / (cfg.CTotal * rssl)
	if fsw > cfg.FSwMax {
		return 0, ivr.Infeasible(an.Name,
			"regulation needs f_sw %.3g Hz above the %.3g Hz limit — increase CTotal", fsw, cfg.FSwMax)
	}
	if fsw < cfg.FSwMin {
		fsw = cfg.FSwMin
	}
	if err := numeric.Finite("sc: regulation f_sw", fsw); err != nil {
		return 0, err
	}
	return fsw, nil
}

// Evaluate computes the static metrics at load current iLoad (A), with the
// feedback loop holding V_out at the configured target.
func (d *Design) Evaluate(iLoad float64) (ivr.Metrics, error) {
	fsw, err := d.RegulationFrequency(iLoad)
	if err != nil {
		return ivr.Metrics{}, err
	}
	return d.EvaluateAt(iLoad, fsw)
}

// EvaluateAt computes the static metrics at an explicit switching frequency
// (open-loop), exposing the raw efficiency-vs-frequency trade-off.
func (d *Design) EvaluateAt(iLoad, fsw float64) (ivr.Metrics, error) {
	cfg := d.cfg
	an := cfg.Analysis
	if fsw <= 0 {
		return ivr.Metrics{}, fmt.Errorf("sc: fsw must be positive")
	}
	rOut := d.ROut(fsw)
	vOut := an.Ratio*cfg.VIn - iLoad*rOut
	if vOut <= 0 {
		return ivr.Metrics{}, ivr.Infeasible(an.Name, "output collapses (%.3g V) at %.3g A, f_sw %.3g Hz", vOut, iLoad, fsw)
	}
	var loss ivr.LossBreakdown
	// Intrinsic conduction/regulation loss through the output impedance.
	loss.Conduction = iLoad * iLoad * rOut

	// Gate drive: per-switch stack gate capacitance cycled each period.
	for i := range d.devs {
		dev := d.devs[i]
		cg := dev.CGate(d.widths[i]) // total gate cap of the stack width
		loss.GateDrive += fsw * cg * dev.VDrive * dev.VDrive
	}
	loss.GateDrive *= driverTax

	// Drain-junction parasitics switched across each device's blocking
	// voltage, plus capacitor bottom-plate parasitics.
	for i := range d.devs {
		vb := an.SwitchBlockVoltages[i] * cfg.VIn
		loss.Parasitic += fsw * d.devs[i].CDrain(d.widths[i]) * vb * vb
	}
	for i, c := range d.capC {
		swing := an.CapBottomSwing[i] * cfg.VIn
		loss.Parasitic += cfg.BottomPlateLossFactor * fsw * d.capOpt.BottomPlateRatio * c * swing * swing
	}

	// Leakage: capacitor dielectric leakage plus off-state switch leakage
	// (each switch is off half the time).
	for i, c := range d.capC {
		loss.Leakage += c * d.capOpt.LeakPerFarad * an.CapVoltages[i] * cfg.VIn
	}
	for i := range d.devs {
		vb := an.SwitchBlockVoltages[i] * cfg.VIn
		loss.Leakage += 0.5 * d.devs[i].Leakage(d.widths[i]) * vb
	}

	// Controller, comparator, and clocking.
	eg := cfg.Node.LogicEnergyPerGateJ
	loss.Control = ctrlStaticW + fsw*eg*float64(ctrlGates+clockGates*cfg.Interleave)

	pOut := vOut * iLoad
	eff := 0.0
	if pOut > 0 {
		eff = pOut / (pOut + loss.Total())
	}
	m := ivr.Metrics{
		Topology:   an.Name + " SC",
		VIn:        cfg.VIn,
		VOut:       vOut,
		ILoad:      iLoad,
		POut:       pOut,
		Loss:       loss,
		Efficiency: eff,
		RippleVpp:  d.Ripple(iLoad, fsw),
		FSw:        fsw,
		AreaDie:    d.Area(),
	}
	if err := m.Finite(); err != nil {
		return ivr.Metrics{}, err
	}
	return m, nil
}

// ElementValues returns the per-capacitor capacitances (F) and per-switch
// on-resistances (ohm) of the design — the values a switch-level simulator
// needs to build the equivalent netlist.
func (d *Design) ElementValues() (caps, rons []float64) {
	caps = append([]float64(nil), d.capC...)
	rons = make([]float64, len(d.gShare))
	for i, g := range d.gShare {
		rons[i] = 1 / g
	}
	return caps, rons
}

// CFlyEffective returns the flying capacitance effectively decoupling the
// output within a phase — the quantity the in-cycle dynamic model uses.
// On average half of the total flying capacitance faces the output.
func (d *Design) CFlyEffective() float64 { return 0.5 * d.cfg.CTotal }

// Ripple estimates the static peak-to-peak output ripple: the load
// discharges the output-facing capacitance between phase boundaries, whose
// spacing shrinks with interleaving.
func (d *Design) Ripple(iLoad, fsw float64) float64 {
	if iLoad <= 0 || fsw <= 0 {
		return 0
	}
	tPhase := 1 / (2 * fsw * float64(d.cfg.Interleave))
	cEff := d.cfg.CDecap + d.CFlyEffective()
	if cEff <= 0 {
		return 0
	}
	return iLoad * tPhase / cEff
}

// Area returns the total die area (m²): flying caps, decap, switches, and
// controller, with a routing tax.
func (d *Design) Area() float64 {
	a := d.capOpt.Area(d.cfg.CTotal)
	a += d.decapOpt.Area(d.cfg.CDecap)
	for i := range d.devs {
		a += float64(d.stacks[i]) * d.devs[i].Area(d.widths[i])
	}
	// Controller macro: gate count at 40 F^2 per gate equivalent.
	f := d.cfg.Node.FeatureM
	a += float64(ctrlGates+clockGates*d.cfg.Interleave) * 40 * f * f * 25
	return a * routingTax
}

// WithInterleave returns a copy of the design split into n phase-shifted
// slices. Interleaving changes only the control loss, the ripple and the
// area, so the copy shares every sized slice with d and equals New with
// Config.Interleave = n bit for bit.
func (d *Design) WithInterleave(n int) (*Design, error) {
	if n < 1 {
		return nil, fmt.Errorf("sc: interleave %d must be >= 1", n)
	}
	dd := *d
	dd.cfg.Interleave = n
	return &dd, nil
}

// SwitchArea returns only the power-switch area (m²), used by area-split
// optimization.
func (d *Design) SwitchArea() float64 {
	a := 0.0
	for i := range d.devs {
		a += float64(d.stacks[i]) * d.devs[i].Area(d.widths[i])
	}
	return a
}

// EfficiencyCurve sweeps the open-loop output voltage from vLo to vHi (by
// varying f_sw regulation) at fixed load and returns parallel slices of
// achieved V_out and efficiency — the curve shape validated in the paper's
// Fig. 7. Points past the efficiency cliff (unreachable targets) are
// omitted, mirroring the "non-functional region" of real converters.
func (d *Design) EfficiencyCurve(iLoad, vLo, vHi float64, points int) (vout, eff []float64) {
	if points < 2 {
		points = 2
	}
	for k := 0; k < points; k++ {
		target := vLo + (vHi-vLo)*float64(k)/float64(points-1)
		cfg := d.cfg
		cfg.VOut = target
		dd, err := New(cfg)
		if err != nil {
			continue
		}
		m, err := dd.Evaluate(iLoad)
		if err != nil {
			continue
		}
		vout = append(vout, m.VOut)
		eff = append(eff, m.Efficiency)
	}
	return vout, eff
}
