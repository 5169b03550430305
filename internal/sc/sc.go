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
// conductance total, so the sweep builds it once with PlanSwitches. Most
// configurations cannot regulate at the load, and SwitchPlan.Regulates
// finds them from the capacitance and conductance totals alone, with the
// regulation arithmetic RegulationFrequency runs, before a Config is
// built. The sweep sizes and scores each survivor with SwitchPlan.Score
// into a Design and Metrics it holds, without allocating. Its ripple
// fix-up re-scores the phase count with SwitchPlan.Rescore, which
// recomputes only the four metrics the phase count moves. It copies only
// the designs it accepts to the heap; New does the sizing for a single
// design.
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

	// areaFixed is the die area (m²) of the flying capacitors, the decap
	// and the switches: Area before the controller macro, whose gate count
	// grows with the phase count, and the routing tax.
	areaFixed float64

	// quiet marks a design held by SwitchPlan.Score: its infeasibility
	// checks return errRejected instead of building an error nobody reads.
	quiet bool
}

// errRejected is what a quiet design returns where an infeasible one
// would describe why.
var errRejected = errors.New("sc: configuration rejected")

const (
	defaultDuty      = 0.5
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
	cfg.Duty = orDefault(cfg.Duty, defaultDuty)
	if cfg.Duty <= 0 || cfg.Duty > 1 {
		return fmt.Errorf("sc: duty cycle %g outside (0, 1]", cfg.Duty)
	}
	if cfg.Interleave == 0 {
		cfg.Interleave = 1
	}
	if cfg.Interleave < 1 {
		return fmt.Errorf("sc: interleave %d must be >= 1", cfg.Interleave)
	}
	cfg.FSwMax = orDefault(cfg.FSwMax, defaultFSwMax)
	cfg.FSwMin = orDefault(cfg.FSwMin, defaultFSwMin)
	cfg.BottomPlateLossFactor = orDefault(cfg.BottomPlateLossFactor, defaultBPRecycle)
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

// orDefault returns v, or def when v is zero (unset in a Config).
func orDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
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

// Regulates reports whether a design sized from the plan, with flying
// capacitance cTotal and switch conductance gTotal split by the cost-aware
// or (uniform) the plain policy, can hold vOut at load iLoad at the
// default duty cycle without switching above fSwMax (zero selects the
// Config default). It runs RegulationFrequency's arithmetic on the values
// Score would size, so it is false only for a configuration Score rejects.
// A sweep asks it before it builds the configuration: most rejected
// configurations fail here, and then cost one R_FSL sum.
func (p *SwitchPlan) Regulates(vOut, cTotal, gTotal, fSwMax, iLoad float64, uniform bool) bool {
	rFSL := rfsl(p.an, p.weights(uniform), gTotal, defaultDuty)
	_, _, v := regulate(p.an, p.vin, vOut, cTotal, rFSL, orDefault(fSwMax, defaultFSwMax), iLoad)
	return v < belowFSL
}

// Score sizes *cfg against the plan into *d and writes the design's static
// metrics at load current iLoad to *m, without allocating. It returns false
// exactly where New(*cfg) followed by Evaluate(iLoad) returns an error; on
// success *d equals *New(*cfg) and *m equals Evaluate's metrics, bit for
// bit. Both run the same checks and arithmetic, Score on a Design and
// Metrics the caller holds (on its stack, typically) and without
// formatting why it rejected. A design-space sweep scores every
// configuration and copies only the ones it accepts to the heap. On
// rejection *d is left partly sized and *m partly written.
func (p *SwitchPlan) Score(d *Design, m *ivr.Metrics, cfg *Config, iLoad float64) bool {
	*d = Design{quiet: true}
	ok := p.load(d, cfg) == nil && d.evaluate(m, iLoad) == nil
	// Leave the design loud, so a copy the caller keeps explains later
	// infeasibilities as New's would.
	d.quiet = false
	return ok
}

// Rescore sets the phase count of a design Score accepted into *d, with
// metrics *m, to n and re-scores it in place: *d and *m then equal what
// Score of its configuration with Interleave n gives, bit for bit, and so
// does the result. The phase count moves only the control loss, the
// efficiency, the ripple and the die area, so Rescore recomputes those
// four from *m with Evaluate's expressions and runs no sizing step.
func (p *SwitchPlan) Rescore(d *Design, m *ivr.Metrics, n int) bool {
	switch {
	case n == 0: // as prepare defaults it
		n = 1
	case n < 0:
		return false
	}
	d.cfg.Interleave = n
	m.Loss.Control = d.controlLoss(m.FSw)
	m.Efficiency = efficiency(m.POut, &m.Loss)
	m.RippleVpp = d.Ripple(m.ILoad, m.FSw)
	m.AreaDie = d.Area()
	return m.Finite() == nil
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

// weights returns the plan's conductance weights under the cost-aware or
// (uniform) the plain allocation policy.
func (p *SwitchPlan) weights(uniform bool) []float64 {
	if uniform {
		return p.uniform
	}
	return p.costAware
}

// size binds the design to the plan's switch mapping under its allocation
// policy, checks that the capacitor allocation and the switch widths are
// finite, and sums the die area they take.
func (d *Design) size(p *SwitchPlan) error {
	d.plan, d.w = p, p.weights(d.cfg.UniformSwitchAllocation)
	for i := range d.cfg.Analysis.CapMultipliers {
		if c := d.capC(i); !finite(c) {
			return numeric.Finite(fmt.Sprintf("sc: capacitor allocation[%d]", i), c)
		}
	}
	a := d.caps.opt.Area(d.cfg.CTotal)
	a += d.caps.decap.Area(d.cfg.CDecap)
	for i := range p.devs {
		w := d.width(i)
		if !finite(w) {
			return numeric.Finite(fmt.Sprintf("sc: switch widths[%d]", i), w)
		}
		a += float64(p.stacks[i]) * p.devs[i].Area(w)
	}
	d.areaFixed = a
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
func (d *Design) RFSL() float64 { return rfsl(d.cfg.Analysis, d.w, d.cfg.GTotal, d.cfg.Duty) }

// rfsl is R_FSL of the conductance total gTotal split by the weights w at
// duty cycle duty: the one copy of the sum, shared by a sized design and
// the plan's regulation screen.
func rfsl(an *topology.Analysis, w []float64, gTotal, duty float64) float64 {
	sum := 0.0
	for i, m := range an.SwitchMultipliers {
		g := gTotal * w[i]
		if g <= 0 {
			continue
		}
		sum += m * m / g
	}
	return sum / duty
}

// ROut returns the total output impedance at f_sw.
func (d *Design) ROut(fsw float64) float64 { return d.rOut(fsw, d.RFSL()) }

// rOut is ROut given the design's R_FSL.
func (d *Design) rOut(fsw, rFSL float64) float64 {
	rssl := d.RSSL(fsw)
	return math.Sqrt(rssl*rssl + rFSL*rFSL)
}

// verdict classifies a regulation operating point.
type verdict uint8

const (
	regulated   verdict = iota // the loop holds the target at f_sw ≤ FSwMax
	unloaded                   // no load: the loop idles at FSwMin
	belowFSL                   // the target needs an impedance at or below R_FSL
	aboveFSwMax                // the target needs f_sw above FSwMax
)

// regulate solves the frequency-modulation operating point at load iLoad:
// the output impedance rReq the target leaves, and the switching frequency
// fsw at which sqrt(R_SSL² + rFSL²) equals it. fsw is unclamped by FSwMin
// and zero unless the verdict is regulated or aboveFSwMax. It is the one
// copy of the regulation arithmetic, shared by RegulationFrequency and the
// plan's regulation screen.
func regulate(an *topology.Analysis, vIn, vOut, cTotal, rFSL, fSwMax, iLoad float64) (rReq, fsw float64, v verdict) {
	if iLoad <= 0 {
		return 0, 0, unloaded
	}
	rReq = (an.Ratio*vIn - vOut) / iLoad
	if rReq <= rFSL {
		return rReq, 0, belowFSL
	}
	rssl := math.Sqrt(rReq*rReq - rFSL*rFSL)
	fsw = an.SumAC * an.SumAC / (cTotal * rssl)
	if fsw > fSwMax {
		return rReq, fsw, aboveFSwMax
	}
	return rReq, fsw, regulated
}

// RegulationFrequency returns the switching frequency at which the
// converter's droop places V_out exactly at the target for load current
// iLoad — the steady-state operating point of the frequency-modulation
// feedback loop. It errors when the target is unreachable (droop exceeds
// the FSL bound) or needs a frequency above FSwMax.
func (d *Design) RegulationFrequency(iLoad float64) (float64, error) {
	return d.regulationFrequency(iLoad, d.RFSL())
}

// regulationFrequency is RegulationFrequency given the design's R_FSL.
func (d *Design) regulationFrequency(iLoad, rFSL float64) (float64, error) {
	cfg := &d.cfg
	an := cfg.Analysis
	rReq, fsw, v := regulate(an, cfg.VIn, cfg.VOut, cfg.CTotal, rFSL, cfg.FSwMax, iLoad)
	switch {
	case v == unloaded:
		return cfg.FSwMin, nil
	case d.quiet && v != regulated:
		return 0, errRejected
	case v == belowFSL:
		return 0, ivr.Infeasible(an.Name,
			"required output impedance %.3g ohm below FSL bound %.3g ohm at %.3g A — increase GTotal or lower VOut",
			rReq, rFSL, iLoad)
	case v == aboveFSwMax:
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
	var m ivr.Metrics
	if err := d.evaluate(&m, iLoad); err != nil {
		return ivr.Metrics{}, err
	}
	return m, nil
}

// evaluate is Evaluate into *m, with one R_FSL sum for the regulation
// frequency and the output impedance.
func (d *Design) evaluate(m *ivr.Metrics, iLoad float64) error {
	rFSL := d.RFSL()
	fsw, err := d.regulationFrequency(iLoad, rFSL)
	if err != nil {
		return err
	}
	return d.evaluateAt(m, iLoad, fsw, rFSL)
}

// evaluateAt writes the static metrics at switching frequency fsw to *m,
// given the design's R_FSL; at an f_sw other than the regulation
// frequency it gives the open-loop point. It makes one pass over the
// switches, computing each width once, and every loss accumulator still
// sums its terms in the loss model's order: gate drive over the switches;
// parasitics over the switches, then the capacitors' bottom plates;
// leakage over the capacitors, then the switches. On error *m is left
// partly written.
func (d *Design) evaluateAt(m *ivr.Metrics, iLoad, fsw, rFSL float64) error {
	cfg := &d.cfg
	an := cfg.Analysis
	if fsw <= 0 {
		return fmt.Errorf("sc: fsw must be positive")
	}
	rOut := d.rOut(fsw, rFSL)
	vOut := an.Ratio*cfg.VIn - iLoad*rOut
	if vOut <= 0 {
		if d.quiet {
			return errRejected
		}
		return ivr.Infeasible(an.Name, "output collapses (%.3g V) at %.3g A, f_sw %.3g Hz", vOut, iLoad, fsw)
	}
	*m = ivr.Metrics{}
	loss := &m.Loss
	// Intrinsic conduction/regulation loss through the output impedance.
	loss.Conduction = iLoad * iLoad * rOut

	// Capacitor dielectric leakage.
	capOpt := &d.caps.opt
	for i := range an.CapMultipliers {
		loss.Leakage += d.capC(i) * capOpt.LeakPerFarad * an.CapVoltages[i] * cfg.VIn
	}
	devs := d.plan.devs
	for i := range devs {
		dev := &devs[i]
		w := d.width(i)
		vb := an.SwitchBlockVoltages[i] * cfg.VIn
		// Gate drive: the stack's gate capacitance cycled each period.
		loss.GateDrive += fsw * dev.CGate(w) * dev.VDrive * dev.VDrive
		// Drain-junction parasitics switched across the blocking voltage.
		loss.Parasitic += fsw * dev.CDrain(w) * vb * vb
		// Off-state leakage: each switch is off half the time.
		loss.Leakage += 0.5 * dev.Leakage(w) * vb
	}
	loss.GateDrive *= driverTax
	// Capacitor bottom-plate parasitics.
	for i := range an.CapMultipliers {
		swing := an.CapBottomSwing[i] * cfg.VIn
		loss.Parasitic += cfg.BottomPlateLossFactor * fsw * capOpt.BottomPlateRatio * d.capC(i) * swing * swing
	}
	loss.Control = d.controlLoss(fsw)

	m.Topology = d.plan.label
	m.VIn, m.VOut, m.ILoad, m.FSw = cfg.VIn, vOut, iLoad, fsw
	m.POut = vOut * iLoad
	m.Efficiency = efficiency(m.POut, loss)
	m.RippleVpp = d.Ripple(iLoad, fsw)
	m.AreaDie = d.Area()
	return m.Finite()
}

// controlLoss is the feedback controller, comparator and clocking power
// (W) at f_sw: a static floor plus the logic switched per cycle, whose
// clock distribution grows with the phase count.
func (d *Design) controlLoss(fsw float64) float64 {
	eg := d.cfg.Node.LogicEnergyPerGateJ
	return ctrlStaticW + fsw*eg*float64(ctrlGates+clockGates*d.cfg.Interleave)
}

// efficiency is POut / (POut + total loss), zero without output power.
func efficiency(pOut float64, loss *ivr.LossBreakdown) float64 {
	if pOut > 0 {
		return pOut / (pOut + loss.Total())
	}
	return 0
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
	// Controller macro: gate count at 40 F^2 per gate equivalent.
	f := d.cfg.Node.FeatureM
	a := d.areaFixed + float64(ctrlGates+clockGates*d.cfg.Interleave)*40*f*f*25
	return a * routingTax
}
