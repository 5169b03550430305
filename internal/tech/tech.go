// Package tech is Ivory's built-in technology database. It plays the role of
// the ITRS/PTM-derived device tables in the paper: for each CMOS node from
// 130 nm down to 10 nm it provides power-switch figures of merit, on-chip
// capacitor flavours, and inductor options (surface-mount and integrated
// thin-film), all of which parameterize the converter models.
//
// The absolute values are representative of published data (PTM device
// characterizations, embedded deep-trench capacitor papers, integrated
// magnetic-inductor surveys) and follow the accepted scaling trends:
// conductance per width improves and capacitor density grows at smaller
// nodes, while leakage per width worsens. They are deliberately editable —
// AddNode registers user-supplied nodes — since Ivory is an early-stage
// exploration tool, not a sign-off tool.
package tech

import (
	"fmt"
	"sort"
	"sync"

	"ivory/internal/numeric"
)

// DeviceClass selects between thin-oxide core devices and thick-oxide I/O
// devices for power switches. I/O devices block higher voltages at the cost
// of higher on-resistance and gate capacitance per width.
type DeviceClass int

const (
	// CoreDevice is the thin-oxide logic transistor of the node.
	CoreDevice DeviceClass = iota
	// IODevice is the thick-oxide transistor rated for board-level voltages.
	IODevice
)

func (d DeviceClass) String() string {
	switch d {
	case CoreDevice:
		return "core"
	case IODevice:
		return "io"
	default:
		return fmt.Sprintf("DeviceClass(%d)", int(d))
	}
}

// CapacitorKind selects an on-chip capacitor flavour.
type CapacitorKind int

const (
	// MOSCap is a thin-oxide MOS capacitor: dense but with a significant
	// bottom-plate parasitic and gate leakage.
	MOSCap CapacitorKind = iota
	// MIMCap is a metal-insulator-metal capacitor: low parasitics, low
	// density, available above the metal stack.
	MIMCap
	// DeepTrench is an embedded deep-trench capacitor: very high density,
	// small bottom-plate ratio; only available on select processes.
	DeepTrench
)

func (k CapacitorKind) String() string {
	switch k {
	case MOSCap:
		return "mos"
	case MIMCap:
		return "mim"
	case DeepTrench:
		return "deep-trench"
	default:
		return fmt.Sprintf("CapacitorKind(%d)", int(k))
	}
}

// InductorKind selects an inductor implementation for buck converters.
type InductorKind int

const (
	// SurfaceMount is a discrete board-level inductor (off-chip VRM class).
	SurfaceMount InductorKind = iota
	// IntegratedThinFilm is an on-die or interposer magnetic-core inductor.
	IntegratedThinFilm
)

func (k InductorKind) String() string {
	switch k {
	case SurfaceMount:
		return "surface-mount"
	case IntegratedThinFilm:
		return "integrated-thin-film"
	default:
		return fmt.Sprintf("InductorKind(%d)", int(k))
	}
}

// SwitchDevice describes a power-switch transistor option. All per-width
// quantities are normalized to meters of gate width.
type SwitchDevice struct {
	Class DeviceClass
	// ROnWidth is the on-resistance * width product (ohm·m).
	ROnWidth float64
	// CGatePerWidth is gate capacitance per width (F/m).
	CGatePerWidth float64
	// CDrainPerWidth is drain junction capacitance per width (F/m).
	CDrainPerWidth float64
	// LeakPerWidth is off-state leakage per width at VMax (A/m).
	LeakPerWidth float64
	// VMax is the maximum drain-source/gate-source voltage (V).
	VMax float64
	// VDrive is the gate-drive swing used by the drivers (V): the core
	// logic rail for core devices, the I/O rail for thick-oxide devices.
	VDrive float64
	// AreaPerWidth is layout area per width (m² per m of width), covering
	// the device, its guard ring, and local routing.
	AreaPerWidth float64
}

// CGate returns the gate capacitance (F) of a switch of width w (m).
func (s SwitchDevice) CGate(w float64) float64 { return s.CGatePerWidth * w }

// CDrain returns the drain capacitance (F) of a switch of width w (m).
func (s SwitchDevice) CDrain(w float64) float64 { return s.CDrainPerWidth * w }

// Leakage returns the off-state leakage (A) of a switch of width w (m).
func (s SwitchDevice) Leakage(w float64) float64 { return s.LeakPerWidth * w }

// Area returns the layout area (m²) of a switch of width w (m).
func (s SwitchDevice) Area(w float64) float64 { return s.AreaPerWidth * w }

// CapacitorOption describes an on-chip capacitor flavour.
type CapacitorOption struct {
	Kind CapacitorKind
	// DensityFPerM2 is capacitance per area (F/m²).
	DensityFPerM2 float64
	// BottomPlateRatio is the parasitic bottom-plate capacitance as a
	// fraction of the main capacitance (dimensionless).
	BottomPlateRatio float64
	// LeakPerFarad is leakage current per farad at nominal voltage (A/F).
	LeakPerFarad float64
	// ESRPerFarad models the distributed series resistance: ESR = ESRPerFarad/C...
	// ESR scales inversely with plate area, so ESR(C) = ESROhmFarad / C.
	ESROhmFarad float64
	// VMax is the voltage rating (V).
	VMax float64
}

// Area returns the die area (m²) required for capacitance c (F).
func (c CapacitorOption) Area(cap float64) float64 {
	if c.DensityFPerM2 <= 0 {
		return 0
	}
	return cap / c.DensityFPerM2
}

// InductorOption describes an inductor implementation.
type InductorOption struct {
	Kind InductorKind
	// DensityHPerM2 is inductance per area (H/m²). Zero for surface-mount parts,
	// whose area is board area tracked separately via FixedAreaM2.
	DensityHPerM2 float64
	// FixedAreaM2 is the board/package footprint (m²) for discrete parts.
	FixedAreaM2 float64
	// DCRPerHenry is series resistance per henry (ohm/H).
	DCRPerHenry float64
	// LFreqCoeff is the polynomial-fitted frequency-dependent inductance
	// coefficient: L_eff(f) = L0 * LFreqCoeff(f/1GHz). The paper models the
	// pronounced inductance roll-off of integrated inductors this way.
	LFreqCoeff numeric.Polynomial
	// ACResistanceExp scales resistance with frequency:
	// R_ac(f) = DCR * (1 + (f/FSkin)^ACResistanceExp) approximated linearly;
	// FSkin is the skin-effect corner (Hz).
	FSkin float64
	// IMax is the saturation-limited maximum current per instance (A).
	IMax float64
}

// LEff returns the effective inductance (H) of a nominal inductance l0 at
// switching frequency f (Hz).
func (l InductorOption) LEff(l0, f float64) float64 {
	if len(l.LFreqCoeff) == 0 {
		return l0
	}
	coeff := l.LFreqCoeff.Eval(f / 1e9)
	if coeff < 0.2 {
		coeff = 0.2 // fitted polynomials are not trusted past 80% roll-off
	}
	return l0 * coeff
}

// Resistance returns the series resistance (ohm) of inductance l0 at
// frequency f (Hz), including the skin-effect increase.
func (l InductorOption) Resistance(l0, f float64) float64 {
	dcr := l.DCRPerHenry * l0
	if l.FSkin > 0 && f > 0 {
		dcr *= 1 + f/l.FSkin*0.5
	}
	return dcr
}

// Area returns the die area (m²) of an integrated inductor of value l0 (H),
// or the fixed footprint for discrete parts.
func (l InductorOption) Area(l0 float64) float64 {
	if l.DensityHPerM2 > 0 {
		return l0 / l.DensityHPerM2
	}
	return l.FixedAreaM2
}

// Node is one technology-node entry of the database.
type Node struct {
	// Name is the lookup key, e.g. "45nm".
	Name string
	// FeatureM is the drawn feature size (m).
	FeatureM float64
	// VddNominal is the nominal core supply (V).
	VddNominal float64
	// Switches holds the available power-switch device classes.
	Switches map[DeviceClass]SwitchDevice
	// Capacitors holds the available capacitor flavours.
	Capacitors map[CapacitorKind]CapacitorOption
	// Inductors holds the available inductor implementations.
	Inductors map[InductorKind]InductorOption
	// GridSheetOhm is the on-chip power-grid sheet resistance (ohm/square).
	GridSheetOhm float64
	// LogicEnergyPerGateJ is switching energy per gate-width-unit, used to
	// size controller overhead (J per transition at VddNominal).
	LogicEnergyPerGateJ float64
}

// Capacitor returns the capacitor option of the given kind.
func (n *Node) Capacitor(kind CapacitorKind) (CapacitorOption, error) {
	c, ok := n.Capacitors[kind]
	if !ok {
		return CapacitorOption{}, fmt.Errorf("tech: node %s has no %v capacitor", n.Name, kind)
	}
	return c, nil
}

// Inductor returns the inductor option of the given kind.
func (n *Node) Inductor(kind InductorKind) (InductorOption, error) {
	l, ok := n.Inductors[kind]
	if !ok {
		return InductorOption{}, fmt.Errorf("tech: node %s has no %v inductor", n.Name, kind)
	}
	return l, nil
}

// SwitchForVoltage returns the cheapest device class able to block v volts,
// together with the number of stacked devices required. Stacking multiplies
// both on-resistance and area by the stack count. Core devices are preferred
// while the stack stays small because their R·C figure of merit is better.
func (n *Node) SwitchForVoltage(v float64) (SwitchDevice, int, error) {
	// The best candidate lives in locals and the classes in an array, so
	// the lookup allocates nothing on success: it sits under every SC
	// switch plan and every buck/LDO design.
	var best SwitchDevice
	bestStack, bestFOM := 0, 0.0
	for _, class := range [...]DeviceClass{CoreDevice, IODevice} {
		dev, ok := n.Switches[class]
		if !ok {
			continue
		}
		stack := 1
		for float64(stack)*dev.VMax < v {
			stack++
			if stack > 8 {
				break
			}
		}
		if float64(stack)*dev.VMax < v {
			continue
		}
		// Figure of merit: effective Ron*Cg product after stacking.
		fom := dev.ROnWidth * float64(stack) * dev.CGatePerWidth * float64(stack)
		if bestStack == 0 || fom < bestFOM {
			best, bestStack, bestFOM = dev, stack, fom
		}
	}
	if bestStack == 0 {
		return SwitchDevice{}, 0, fmt.Errorf("tech: node %s has no switch able to block %.2f V", n.Name, v)
	}
	return best, bestStack, nil
}

var (
	mu       sync.RWMutex
	registry = map[string]*Node{}
)

// Lookup returns the node registered under name (e.g. "45nm").
func Lookup(name string) (*Node, error) {
	mu.RLock()
	defer mu.RUnlock()
	n, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("tech: unknown technology node %q (have %v)", name, nodeNamesLocked())
	}
	return n, nil
}

// MustLookup is Lookup for known-good built-in names; it panics on a miss.
func MustLookup(name string) *Node {
	n, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return n
}

// AddNode registers (or replaces) a node in the database, supporting the
// paper's "built-in and extensible" technology tables.
func AddNode(n *Node) error {
	if n == nil || n.Name == "" {
		return fmt.Errorf("tech: AddNode requires a named node")
	}
	if len(n.Switches) == 0 {
		return fmt.Errorf("tech: node %s must provide at least one switch device", n.Name)
	}
	mu.Lock()
	defer mu.Unlock()
	registry[n.Name] = n
	return nil
}

// Nodes returns the sorted list of registered node names.
func Nodes() []string {
	mu.RLock()
	defer mu.RUnlock()
	return nodeNamesLocked()
}

func nodeNamesLocked() []string {
	names := make([]string, 0, len(registry))
	for k := range registry {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
