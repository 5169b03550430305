// Package buck implements Ivory's static model of buck-converter IVRs,
// extending the accepted off-chip VRM loss model (the paper's ref [15]) to
// on-chip regulators: switch conduction and gate losses come from the
// technology database, and the pronounced frequency dependence of
// integrated inductors is captured by a polynomial-fitted L(f) coefficient,
// exactly as the paper describes.
//
// A buck regulates by duty-cycle modulation at a fixed switching frequency
// and — unlike a switched-capacitor converter — sustains a roughly constant
// efficiency across a wide output range, the key qualitative difference the
// design-space exploration exposes.
package buck

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"ivory/internal/ivr"
	"ivory/internal/numeric"
	"ivory/internal/tech"
)

// Config parameterizes a buck converter design point.
type Config struct {
	// Node is the technology node.
	Node *tech.Node
	// Inductor selects the inductor implementation.
	Inductor tech.InductorKind
	// OutCap selects the output capacitor flavour.
	OutCap tech.CapacitorKind
	// VIn and VOut are the input voltage and regulation target (V).
	VIn, VOut float64
	// L is the per-phase inductance (H).
	L float64
	// COut is the total output capacitance (F).
	COut float64
	// FSw is the fixed switching frequency (Hz).
	FSw float64
	// GHigh and GLow are the per-phase high-side / low-side switch
	// conductances (S).
	GHigh, GLow float64
	// Interleave is the number of phases; defaults to 1.
	Interleave int
	// AllowDCM permits operation below the CCM boundary; when false,
	// Evaluate reports infeasibility if the phase current ripple exceeds
	// twice the per-phase load current.
	AllowDCM bool
	// IgnoreInductorRollOff disables the frequency-dependent inductance
	// coefficient (the paper's polynomial-fitted L(f) model), treating the
	// inductor as ideal. Exposed for the ablation study: ignoring the
	// roll-off underestimates current ripple and losses at high f_sw.
	IgnoreInductorRollOff bool
}

// Design is a validated buck converter.
type Design struct {
	cfg Config

	ind    tech.InductorOption
	outCap tech.CapacitorOption

	devHS, devLS     tech.SwitchDevice
	stackHS, stackLS int
	wHS, wLS         float64

	// quiet marks a design held by Score: its infeasibility checks return
	// errRejected instead of building an error nobody reads.
	quiet bool
}

// errRejected is what a quiet design returns where an infeasible one
// would describe why.
var errRejected = errors.New("buck: configuration rejected")

const (
	driverTax   = 1.3
	routingTax  = 1.10
	ctrlGates   = 2000 // PWM + compensator is busier than an SC hysteretic loop
	clockGates  = 400
	ctrlStaticW = 60e-6
)

// New validates the configuration and maps switches onto technology devices.
func New(cfg Config) (*Design, error) {
	d := &Design{}
	if err := d.init(cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Score sizes and evaluates one design point the way a design-space sweep
// does, on a stack-held Design: New(cfg), then OptimizeConductances(iLoad),
// then Evaluate(iLoad). ok is false exactly where one of them returns an
// error, and on success d and m equal what they return, bit for bit. The
// rejected configurations allocate nothing and format no reason.
func Score(cfg Config, iLoad float64) (d Design, m ivr.Metrics, ok bool) {
	d.quiet = true
	if d.init(cfg) != nil || d.optimize(iLoad) != nil {
		return Design{}, ivr.Metrics{}, false
	}
	m, err := d.Evaluate(iLoad)
	if err != nil {
		return Design{}, ivr.Metrics{}, false
	}
	d.quiet = false
	return d, m, true
}

// init validates and defaults cfg into d, looks up its devices and sizes
// its switches: everything New does.
func (d *Design) init(cfg Config) error {
	if cfg.Node == nil {
		return fmt.Errorf("buck: Config.Node is required")
	}
	if cfg.VIn <= 0 || cfg.VOut <= 0 {
		return fmt.Errorf("buck: voltages must be positive")
	}
	if cfg.VOut >= cfg.VIn {
		if d.quiet {
			return errRejected
		}
		return ivr.Infeasible("buck", "VOut %.3g V must be below VIn %.3g V", cfg.VOut, cfg.VIn)
	}
	if cfg.L <= 0 || cfg.COut <= 0 || cfg.FSw <= 0 {
		return fmt.Errorf("buck: L, COut, and FSw must be positive")
	}
	if err := checkConductances(cfg.GHigh, cfg.GLow); err != nil {
		return err
	}
	if cfg.Interleave == 0 {
		cfg.Interleave = 1
	}
	if cfg.Interleave < 1 {
		return fmt.Errorf("buck: interleave %d must be >= 1", cfg.Interleave)
	}
	ind, err := cfg.Node.Inductor(cfg.Inductor)
	if err != nil {
		return err
	}
	oc, err := cfg.Node.Capacitor(cfg.OutCap)
	if err != nil {
		return err
	}
	if cfg.VOut > oc.VMax*1.001 {
		if d.quiet {
			return errRejected
		}
		return ivr.Infeasible("buck", "output capacitor rated %.2f V below VOut %.2f V", oc.VMax, cfg.VOut)
	}
	d.cfg, d.ind, d.outCap = cfg, ind, oc
	// Both switches block the full input voltage (switching node swings
	// rail to rail).
	d.devHS, d.stackHS, err = cfg.Node.SwitchForVoltage(cfg.VIn)
	if err != nil {
		return err
	}
	d.devLS, d.stackLS, err = cfg.Node.SwitchForVoltage(cfg.VIn)
	if err != nil {
		return err
	}
	d.sizeSwitches()
	return nil
}

// checkConductances rejects non-positive switch conductances.
func checkConductances(gHigh, gLow float64) error {
	if gHigh <= 0 || gLow <= 0 {
		return fmt.Errorf("buck: switch conductances must be positive")
	}
	return nil
}

// sizeSwitches derives the switch widths from the configured conductances.
func (d *Design) sizeSwitches() {
	d.wHS = float64(d.stackHS) * d.devHS.ROnWidth * d.cfg.GHigh
	d.wLS = float64(d.stackLS) * d.devLS.ROnWidth * d.cfg.GLow
}

// Config returns the (defaulted) configuration.
func (d *Design) Config() Config { return d.cfg }

// LEff returns the effective per-phase inductance at the switching
// frequency, after the integrated inductor's roll-off (unless disabled).
func (d *Design) LEff() float64 {
	if d.cfg.IgnoreInductorRollOff {
		return d.cfg.L
	}
	return d.ind.LEff(d.cfg.L, d.cfg.FSw)
}

// Duty returns the steady-state duty cycle including the first-order
// conduction-drop correction.
func (d *Design) Duty(iLoad float64) float64 {
	cfg := d.cfg
	iPh := iLoad / float64(cfg.Interleave)
	rhs := 1 / cfg.GHigh
	rls := 1 / cfg.GLow
	rl := d.ind.Resistance(cfg.L, cfg.FSw)
	num := cfg.VOut + iPh*(rls+rl)
	den := cfg.VIn - iPh*(rhs-rls)
	if den <= 0 {
		return 1
	}
	return num / den
}

// RippleCurrent returns the per-phase peak-to-peak inductor current ripple.
func (d *Design) RippleCurrent(iLoad float64) float64 {
	cfg := d.cfg
	dty := d.Duty(iLoad)
	return cfg.VOut * (1 - dty) / (d.LEff() * cfg.FSw)
}

// RippleVoltage returns the output voltage ripple. Interleaving multiplies
// the effective ripple frequency by N and cancels a ~1/N fraction of the
// amplitude, so the combined attenuation scales as 1/N².
func (d *Design) RippleVoltage(iLoad float64) float64 {
	cfg := d.cfg
	n := float64(cfg.Interleave)
	di := d.RippleCurrent(iLoad)
	return di / (8 * cfg.COut * cfg.FSw * n * n)
}

// switchTime returns the voltage-current overlap interval of a hard
// transition, proportional to the node's gate delay (~4 FO4 delays; an FO4
// is roughly 0.5 ns per micron of feature size, so 2e-3 s/m of feature).
func (d *Design) switchTime() float64 {
	return 2e-3 * d.cfg.Node.FeatureM // ~90 ps at 45 nm
}

// Evaluate computes the static metrics at load current iLoad (A).
func (d *Design) Evaluate(iLoad float64) (ivr.Metrics, error) {
	cfg := d.cfg
	if iLoad < 0 {
		return ivr.Metrics{}, fmt.Errorf("buck: negative load current")
	}
	n := float64(cfg.Interleave)
	iPh := iLoad / n
	dty := d.Duty(iLoad)
	if dty >= 1 {
		if d.quiet {
			return ivr.Metrics{}, errRejected
		}
		return ivr.Metrics{}, ivr.Infeasible("buck", "duty saturates at %.3g A — conduction drop exceeds headroom", iLoad)
	}
	di := d.RippleCurrent(iLoad)
	if !cfg.AllowDCM && iLoad > 0 && di/2 > iPh {
		if d.quiet {
			return ivr.Metrics{}, errRejected
		}
		return ivr.Metrics{}, ivr.Infeasible("buck",
			"phase ripple %.3g A exceeds CCM boundary at %.3g A/phase — increase L or allow DCM", di, iPh)
	}
	if iPh+di/2 > d.ind.IMax {
		if d.quiet {
			return ivr.Metrics{}, errRejected
		}
		return ivr.Metrics{}, ivr.Infeasible("buck",
			"peak phase current %.3g A exceeds inductor saturation %.3g A", iPh+di/2, d.ind.IMax)
	}
	iRms2 := iPh*iPh + di*di/12

	var loss ivr.LossBreakdown
	rhs := 1 / cfg.GHigh
	rls := 1 / cfg.GLow
	loss.Conduction = n * iRms2 * (dty*rhs + (1-dty)*rls)
	loss.Magnetic = n * iRms2 * d.ind.Resistance(cfg.L, cfg.FSw)

	// Gate drive of both switches each cycle, per phase.
	vdrHS := d.devHS.VDrive
	vdrLS := d.devLS.VDrive
	loss.GateDrive = n * cfg.FSw * (d.devHS.CGate(d.wHS)*vdrHS*vdrHS + d.devLS.CGate(d.wLS)*vdrLS*vdrLS) * driverTax

	// Hard-switching overlap on the high side plus switching-node
	// drain-capacitance loss.
	tsw := d.switchTime()
	loss.Parasitic = n * cfg.FSw * (cfg.VIn*iPh*tsw + (d.devHS.CDrain(d.wHS)+d.devLS.CDrain(d.wLS))*cfg.VIn*cfg.VIn)

	// Off-state leakage: each switch is off most of the complementary
	// interval.
	loss.Leakage = n * ((1-dty)*d.devHS.Leakage(d.wHS) + dty*d.devLS.Leakage(d.wLS)) * cfg.VIn

	eg := cfg.Node.LogicEnergyPerGateJ
	loss.Control = ctrlStaticW + cfg.FSw*eg*float64(ctrlGates+clockGates*cfg.Interleave)

	pOut := cfg.VOut * iLoad
	eff := 0.0
	if pOut > 0 {
		eff = pOut / (pOut + loss.Total())
	}
	m := ivr.Metrics{
		Topology:   "buck " + strconv.Itoa(cfg.Interleave) + "phase",
		VIn:        cfg.VIn,
		VOut:       cfg.VOut,
		ILoad:      iLoad,
		POut:       pOut,
		Loss:       loss,
		Efficiency: eff,
		RippleVpp:  d.RippleVoltage(iLoad),
		FSw:        cfg.FSw,
		AreaDie:    d.AreaDie(),
		AreaBoard:  d.AreaBoard(),
	}
	if err := m.Finite(); err != nil {
		return ivr.Metrics{}, err
	}
	return m, nil
}

// AreaDie returns the silicon area (m²): integrated inductors, output caps,
// switches, and controller.
func (d *Design) AreaDie() float64 {
	cfg := d.cfg
	a := 0.0
	if d.ind.DensityHPerM2 > 0 { // integrated inductor lives on-die
		a += float64(cfg.Interleave) * d.ind.Area(cfg.L)
	}
	a += d.outCap.Area(cfg.COut)
	a += float64(d.stackHS)*d.devHS.Area(d.wHS) + float64(d.stackLS)*d.devLS.Area(d.wLS)
	f := cfg.Node.FeatureM
	a += float64(ctrlGates+clockGates*cfg.Interleave) * 40 * f * f * 25
	return a * routingTax
}

// AreaBoard returns the board footprint (m²) of discrete inductors, zero
// for fully integrated designs.
func (d *Design) AreaBoard() float64 {
	if d.ind.DensityHPerM2 > 0 {
		return 0
	}
	return float64(d.cfg.Interleave) * d.ind.FixedAreaM2
}

// OptimizeConductances returns a copy of the design with the high/low-side
// conductances set to the conduction-vs-gate-loss optimum at the given load:
// G* = I_phase · sqrt(weight / (f_sw·κ)) per switch, where κ is the
// device's R·C·V² cost. Only the conductances and switch widths change, so
// the copy keeps the design's validated configuration and device lookups.
func (d *Design) OptimizeConductances(iLoad float64) (*Design, error) {
	o := *d
	if err := o.optimize(iLoad); err != nil {
		return nil, err
	}
	return &o, nil
}

// optimize sets d's conductances to the optimum at iLoad and resizes its
// switches.
func (d *Design) optimize(iLoad float64) error {
	cfg := &d.cfg
	iPh := iLoad / float64(cfg.Interleave)
	if iPh <= 0 {
		return fmt.Errorf("buck: OptimizeConductances needs a positive load")
	}
	dty := cfg.VOut / cfg.VIn
	opt := func(dev tech.SwitchDevice, stack int, weight float64) float64 {
		vdr := dev.VDrive
		kappa := float64(stack*stack) * dev.ROnWidth * dev.CGatePerWidth * vdr * vdr * driverTax
		return iPh * math.Sqrt(weight/(cfg.FSw*kappa))
	}
	gHigh, gLow := opt(d.devHS, d.stackHS, dty), opt(d.devLS, d.stackLS, 1-dty)
	if err := numeric.AllFinite("buck: optimized conductances", gHigh, gLow); err != nil {
		return err
	}
	if err := checkConductances(gHigh, gLow); err != nil {
		return err
	}
	cfg.GHigh, cfg.GLow = gHigh, gLow
	d.sizeSwitches()
	return nil
}
