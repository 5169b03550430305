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
// conductance total, so the sweep builds it once with PlanSwitches. It
// sizes and scores each configuration with SwitchPlan.Score, which
// allocates nothing, and copies only the designs it accepts to the heap;
// New does both steps for a single design.
package sc

import (
	"errors"
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
// It stores no per-element slices: each capacitor's capacitance and each
// switch's conductance share and width are derived from the configuration
// and the switch plan where they are used, so the allocation-free scorer
// (SwitchPlan.Score) runs the same arithmetic on a stack-held Design.
type Design struct {
	cfg  Config
	plan *SwitchPlan
	// w is the plan's conductance-weight vector for the design's
	// allocation policy, shared read-only with the plan.
	w []float64

	// caps holds the flying-capacitor and decap options, shared
	// read-only with the plan when the design is sized from one.
	caps *capChoice

	// quiet marks a design held by SwitchPlan.Score: its infeasibility
	// checks return errRejected instead of building an error nobody reads.
	quiet bool
}

// errRejected is what a quiet design returns where an infeasible one
// would describe why.
var errRejected = errors.New("sc: configuration rejected")

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
	d := &Design{}
	if err := d.prepare(&cfg, nil); err != nil {
		return nil, err
	}
	p, err := PlanSwitches(d.cfg.Analysis, d.cfg.Node, d.cfg.VIn)
	if err != nil {
		return nil, err
	}
	if err := d.size(p); err != nil {
		return nil, err
	}
	return d, nil
}

// prepare copies the configuration into d, validates and defaults it
// there, looks up its capacitor options and checks the flying capacitors'
// voltage rating: every step of New that precedes the switch mapping. A
// non-nil plan supplies the capacitor lookups it resolved for its node.
func (d *Design) prepare(in *Config, p *SwitchPlan) error {
	d.cfg = *in
	cfg := &d.cfg
	if cfg.Analysis == nil {
		return fmt.Errorf("sc: Config.Analysis is required")
	}
	if cfg.Node == nil {
		return fmt.Errorf("sc: Config.Node is required")
	}
	if cfg.VIn <= 0 || cfg.VOut <= 0 {
		return fmt.Errorf("sc: voltages must be positive (VIn=%g, VOut=%g)", cfg.VIn, cfg.VOut)
	}
	if cfg.CTotal <= 0 || cfg.GTotal <= 0 {
		return fmt.Errorf("sc: CTotal and GTotal must be positive")
	}
	if cfg.Duty == 0 {
		cfg.Duty = 0.5
	}
	if cfg.Duty <= 0 || cfg.Duty > 1 {
		return fmt.Errorf("sc: duty cycle %g outside (0, 1]", cfg.Duty)
	}
	if cfg.Interleave == 0 {
		cfg.Interleave = 1
	}
	if cfg.Interleave < 1 {
		return fmt.Errorf("sc: interleave %d must be >= 1", cfg.Interleave)
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
		return fmt.Errorf("sc: BottomPlateLossFactor %g outside [0, 1]", cfg.BottomPlateLossFactor)
	}
	an := cfg.Analysis
	ideal := an.Ratio * cfg.VIn
	if cfg.VOut >= ideal {
		if d.quiet {
			return errRejected
		}
		return ivr.Infeasible(an.Name,
			"target VOut %.3g V not below ideal output %.3g V (= %.3g * %.3g V)",
			cfg.VOut, ideal, an.Ratio, cfg.VIn)
	}
	caps := p.capacitors(cfg.Node, cfg.CapKind)
	if caps.err != nil {
		return caps.err
	}
	d.caps = caps
	capOpt := &caps.opt
	// Voltage-rating check against the capacitor option.
	for i := range an.CapMultipliers {
		if v := an.CapVoltages[i] * cfg.VIn; v > capOpt.VMax*1.001 {
			if d.quiet {
				return errRejected
			}
			return ivr.Infeasible(an.Name,
				"capacitor %d holds %.2f V, above the %.2f V rating of %v caps", i, v, capOpt.VMax, cfg.CapKind)
		}
	}
	return nil
}

// capChoice is a node's capacitor lookup for one flying-capacitor kind:
// the option itself and the decap option beside it, or the lookup error.
type capChoice struct {
	opt, decap tech.CapacitorOption
	err        error
}

// lookupCaps resolves kind's capacitor option on node. Decap uses the
// densest low-voltage option available: deep trench if present, the
// flying-capacitor option otherwise.
func lookupCaps(node *tech.Node, kind tech.CapacitorKind) capChoice {
	opt, err := node.Capacitor(kind)
	if err != nil {
		return capChoice{err: err}
	}
	c := capChoice{opt: opt, decap: opt}
	if dt, ok := node.Capacitors[tech.DeepTrench]; ok {
		c.decap = dt
	}
	return c
}

// capacitors returns the capacitor lookup of kind on node: the plan's,
// resolved once, when the plan is for that node, else a fresh lookup.
func (p *SwitchPlan) capacitors(node *tech.Node, kind tech.CapacitorKind) *capChoice {
	if p != nil && node == p.node && kind >= 0 && int(kind) < len(p.caps) {
		return &p.caps[kind]
	}
	c := lookupCaps(node, kind)
	return &c
}

// SwitchPlan is the part of SC sizing that depends only on the topology,
// the node and the input voltage: the device and stack depth of every
// switch and the conductance weights of both allocation policies. A plan
// and the slices it shares with the designs sized from it are never
// written after PlanSwitches returns, so one plan serves any number of
// goroutines.
type SwitchPlan struct {
	an    *topology.Analysis
	node  *tech.Node
	vin   float64
	label string // Metrics.Topology of every design sized from the plan

	devs   []tech.SwitchDevice
	stacks []int
	// costAware and uniform are the normalized per-switch conductance
	// weights of the two allocation policies (Config.UniformSwitchAllocation).
	costAware, uniform []float64
	// costPerG is the switch area per siemens of G_total under the
	// cost-aware split: Σ w_i · s_i² · RonW_i · AreaPerW_i.
	costPerG float64
	// caps holds the node's capacitor lookups, indexed by CapacitorKind;
	// the designs sized from the plan share them instead of repeating them.
	caps [tech.DeepTrench + 1]capChoice
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
		label:     an.Name + " SC",
		devs:      make([]tech.SwitchDevice, an.NumSwitches),
		stacks:    make([]int, an.NumSwitches),
		costAware: make([]float64, an.NumSwitches),
		uniform:   make([]float64, an.NumSwitches),
	}
	for kind := range p.caps {
		p.caps[kind] = lookupCaps(node, tech.CapacitorKind(kind))
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

// newDesign sizes cfg against the plan on the heap: it equals the
// package-level New(cfg) bit for bit, without re-deriving the switch
// mapping. cfg must name the plan's topology analysis, node and input
// voltage. It is the reference Score is tested against.
func (p *SwitchPlan) newDesign(cfg Config) (*Design, error) {
	d := &Design{}
	if err := p.load(d, &cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Score sizes cfg against the plan into *d and returns the design's static
// metrics at load current iLoad, without allocating. ok is false exactly
// where New(cfg) followed by Evaluate(iLoad) returns an error; on success
// *d equals *New(cfg) and the metrics equal Evaluate's, bit for bit. Both
// run the same checks and arithmetic, Score on a Design the caller holds
// (on its stack, typically) that never formats why it was rejected. A
// design-space sweep scores every configuration and copies only the ones
// it accepts to the heap. On rejection *d is left partly sized.
func (p *SwitchPlan) Score(d *Design, cfg Config, iLoad float64) (ivr.Metrics, bool) {
	*d = Design{quiet: true}
	if p.load(d, &cfg) != nil {
		return ivr.Metrics{}, false
	}
	return d.scoreQuietly(iLoad)
}

// Rescore sets the phase count of a design Score accepted into *d to n and
// re-scores it at iLoad: the result equals Score of its configuration with
// Interleave n, bit for bit, ok included. The phase count changes no
// sizing step, so only the evaluation runs again.
func (p *SwitchPlan) Rescore(d *Design, n int, iLoad float64) (ivr.Metrics, bool) {
	switch {
	case n == 0: // as prepare defaults it
		n = 1
	case n < 0:
		return ivr.Metrics{}, false
	}
	d.cfg.Interleave = n
	d.quiet = true
	return d.scoreQuietly(iLoad)
}

// scoreQuietly evaluates a quiet design at iLoad and leaves it loud, so a
// copy the caller keeps explains later infeasibilities as New's would.
func (d *Design) scoreQuietly(iLoad float64) (ivr.Metrics, bool) {
	m, err := d.Evaluate(iLoad)
	d.quiet = false
	return m, err == nil
}

// load prepares cfg into d and sizes it against the plan.
func (p *SwitchPlan) load(d *Design, cfg *Config) error {
	if err := d.prepare(cfg, p); err != nil {
		return err
	}
	if cfg.Analysis != p.an || cfg.Node != p.node || math.Float64bits(cfg.VIn) != math.Float64bits(p.vin) {
		return fmt.Errorf("sc: switch plan for %s on %s at %g V does not match config (%s on %s at %g V)",
			p.an.Name, p.node.Name, p.vin, cfg.Analysis.Name, cfg.Node.Name, cfg.VIn)
	}
	return d.size(p)
}

// size binds the design to the plan's switch mapping under its allocation
// policy and checks that the capacitor allocation and the switch widths
// are finite.
func (d *Design) size(p *SwitchPlan) error {
	d.plan, d.w = p, p.costAware
	if d.cfg.UniformSwitchAllocation {
		d.w = p.uniform
	}
	for i := range d.cfg.Analysis.CapMultipliers {
		if c := d.capC(i); !finite(c) {
			return numeric.Finite(fmt.Sprintf("sc: capacitor allocation[%d]", i), c)
		}
	}
	for i := range p.devs {
		if w := d.width(i); !finite(w) {
			return numeric.Finite(fmt.Sprintf("sc: switch widths[%d]", i), w)
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// capC is capacitor i's share of the flying capacitance (F), proportional
// to |a_c,i| (the optimal SSL split).
func (d *Design) capC(i int) float64 {
	an := d.cfg.Analysis
	return d.cfg.CTotal * an.CapMultipliers[i] / an.SumAC
}

// gShare is switch i's share of the total conductance (S).
func (d *Design) gShare(i int) float64 { return d.cfg.GTotal * d.w[i] }

// width is switch i's total device width (m): a stack of s devices in
// series has total R = s * RonW/W.
func (d *Design) width(i int) float64 {
	return float64(d.plan.stacks[i]) * d.plan.devs[i].ROnWidth * d.gShare(i)
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
		g := d.gShare(i)
		if g <= 0 {
			continue
		}
		sum += m * m / g
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
	cfg := &d.cfg
	an := cfg.Analysis
	if iLoad <= 0 {
		return cfg.FSwMin, nil
	}
	rReq := (an.Ratio*cfg.VIn - cfg.VOut) / iLoad
	rfsl := d.RFSL()
	if rReq <= rfsl {
		if d.quiet {
			return 0, errRejected
		}
		return 0, ivr.Infeasible(an.Name,
			"required output impedance %.3g ohm below FSL bound %.3g ohm at %.3g A — increase GTotal or lower VOut",
			rReq, rfsl, iLoad)
	}
	rssl := math.Sqrt(rReq*rReq - rfsl*rfsl)
	fsw := an.SumAC * an.SumAC / (cfg.CTotal * rssl)
	if fsw > cfg.FSwMax {
		if d.quiet {
			return 0, errRejected
		}
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
	cfg := &d.cfg
	an := cfg.Analysis
	if fsw <= 0 {
		return ivr.Metrics{}, fmt.Errorf("sc: fsw must be positive")
	}
	rOut := d.ROut(fsw)
	vOut := an.Ratio*cfg.VIn - iLoad*rOut
	if vOut <= 0 {
		if d.quiet {
			return ivr.Metrics{}, errRejected
		}
		return ivr.Metrics{}, ivr.Infeasible(an.Name, "output collapses (%.3g V) at %.3g A, f_sw %.3g Hz", vOut, iLoad, fsw)
	}
	var loss ivr.LossBreakdown
	// Intrinsic conduction/regulation loss through the output impedance.
	loss.Conduction = iLoad * iLoad * rOut

	devs := d.plan.devs
	// Gate drive: per-switch stack gate capacitance cycled each period.
	for i, dev := range devs {
		cg := dev.CGate(d.width(i)) // total gate cap of the stack width
		loss.GateDrive += fsw * cg * dev.VDrive * dev.VDrive
	}
	loss.GateDrive *= driverTax

	// Drain-junction parasitics switched across each device's blocking
	// voltage, plus capacitor bottom-plate parasitics.
	for i, dev := range devs {
		vb := an.SwitchBlockVoltages[i] * cfg.VIn
		loss.Parasitic += fsw * dev.CDrain(d.width(i)) * vb * vb
	}
	for i := range an.CapMultipliers {
		swing := an.CapBottomSwing[i] * cfg.VIn
		loss.Parasitic += cfg.BottomPlateLossFactor * fsw * d.caps.opt.BottomPlateRatio * d.capC(i) * swing * swing
	}

	// Leakage: capacitor dielectric leakage plus off-state switch leakage
	// (each switch is off half the time).
	for i := range an.CapMultipliers {
		loss.Leakage += d.capC(i) * d.caps.opt.LeakPerFarad * an.CapVoltages[i] * cfg.VIn
	}
	for i, dev := range devs {
		vb := an.SwitchBlockVoltages[i] * cfg.VIn
		loss.Leakage += 0.5 * dev.Leakage(d.width(i)) * vb
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
		Topology:   d.plan.label,
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
	caps = make([]float64, len(d.cfg.Analysis.CapMultipliers))
	for i := range caps {
		caps[i] = d.capC(i)
	}
	rons = make([]float64, len(d.w))
	for i := range rons {
		rons[i] = 1 / d.gShare(i)
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
	a := d.caps.opt.Area(d.cfg.CTotal)
	a += d.caps.decap.Area(d.cfg.CDecap)
	for i, dev := range d.plan.devs {
		a += float64(d.plan.stacks[i]) * dev.Area(d.width(i))
	}
	// Controller macro: gate count at 40 F^2 per gate equivalent.
	f := d.cfg.Node.FeatureM
	a += float64(ctrlGates+clockGates*d.cfg.Interleave) * 40 * f * f * 25
	return a * routingTax
}
