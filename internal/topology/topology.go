// Package topology models two-phase switched-capacitor converter topologies
// and computes their charge-multiplier vectors using the analytical
// methodology of Seeman & Sanders that the paper adopts.
//
// A topology is a netlist of flying/DC capacitors and phase-assigned
// switches between nodes. From it the package derives, fully analytically:
//
//   - the ideal (no-load) conversion ratio M = Vout/Vin,
//   - the capacitor charge-multiplier vector a_c (charge through each
//     capacitor per unit output charge),
//   - the switch charge-multiplier vector a_r,
//   - per-element voltage ratings (capacitor DC voltage, switch blocking
//     voltage), needed to choose device classes from the technology database.
//
// These feed the paper's Eq. (1): R_SSL = (Σ|a_c|)²/(C_tot·f_sw) and
// R_FSL = (Σ|a_r|)²/(G_tot·D_cyc) under optimal capacitance/conductance
// allocation.
//
// Built-in generators cover the families Ivory ships (series-parallel and
// symmetric ladder for any supported ratio) plus Dickson, Fibonacci, and
// doubler topologies; advanced users can also supply charge-multiplier
// vectors directly via Custom, mirroring the paper's plug-in interface.
package topology

import (
	"fmt"
	"math"

	"ivory/internal/numeric"
)

// Node identifies a circuit node. Three nodes are reserved; internal nodes
// are created with Builder.NewNode.
type Node int

const (
	// Gnd is the ground reference.
	Gnd Node = 0
	// Vin is the converter input terminal.
	Vin Node = 1
	// Vout is the converter output terminal.
	Vout Node = 2

	numReserved = 3
)

// Phase identifies one of the two non-overlapping switching phases.
type Phase int

const (
	// Phi1 is the first switching phase.
	Phi1 Phase = 1
	// Phi2 is the second switching phase.
	Phi2 Phase = 2
)

// other returns the complementary phase.
func (p Phase) other() Phase {
	if p == Phi1 {
		return Phi2
	}
	return Phi1
}

// Cap is a capacitor element between Pos and Neg. Both flying and DC
// (rail-attached) capacitors are expressed this way.
type Cap struct {
	Pos, Neg Node
	// Label is an optional human-readable designator (e.g. "C1", "Dc2").
	Label string
}

// Switch is a switch element closed during Phase and open otherwise.
type Switch struct {
	A, B  Node
	Phase Phase
	// Label is an optional designator.
	Label string
}

// Topology is a two-phase switched-capacitor converter netlist.
type Topology struct {
	// Name describes the topology, e.g. "series-parallel 3:1".
	Name     string
	numNodes int
	Caps     []Cap
	Switches []Switch
}

// Builder incrementally constructs a Topology.
type Builder struct {
	t Topology
}

// NewBuilder returns a Builder for a named topology.
func NewBuilder(name string) *Builder {
	return &Builder{t: Topology{Name: name, numNodes: numReserved}}
}

// NewNode allocates a fresh internal node.
func (b *Builder) NewNode() Node {
	n := Node(b.t.numNodes)
	b.t.numNodes++
	return n
}

// AddCap adds a capacitor between pos and neg.
func (b *Builder) AddCap(pos, neg Node, label string) {
	b.t.Caps = append(b.t.Caps, Cap{Pos: pos, Neg: neg, Label: label})
}

// AddSwitch adds a switch between a and b, closed during phase.
func (b *Builder) AddSwitch(a, bb Node, phase Phase, label string) {
	b.t.Switches = append(b.t.Switches, Switch{A: a, B: bb, Phase: phase, Label: label})
}

// Build returns the completed topology.
func (b *Builder) Build() *Topology {
	t := b.t // copy
	return &t
}

// Analysis is the analytical characterization of a topology.
type Analysis struct {
	// Name echoes the topology name.
	Name string
	// Ratio is the ideal no-load conversion ratio M = Vout/Vin.
	Ratio float64
	// CapMultipliers holds |a_c,i| per capacitor (unit output charge).
	CapMultipliers []float64
	// SwitchMultipliers holds |a_r,i| per switch.
	SwitchMultipliers []float64
	// SumAC = Σ|a_c,i| — the SSL metric of Eq. (1).
	SumAC float64
	// SumAR = Σ|a_r,i| — the FSL metric of Eq. (1).
	SumAR float64
	// CapVoltages holds each capacitor's DC voltage as a fraction of Vin.
	CapVoltages []float64
	// CapBottomSwing holds the phase-to-phase voltage swing of each
	// capacitor's negative (bottom) plate as a fraction of Vin; it drives
	// the bottom-plate parasitic loss term.
	CapBottomSwing []float64
	// SwitchBlockVoltages holds each switch's off-state blocking voltage as
	// a fraction of Vin.
	SwitchBlockVoltages []float64
	// InputCharge is the net charge drawn from Vin per unit output charge.
	// For a lossless two-port it equals Ratio (power conservation), a
	// property the test suite checks for every generated topology.
	InputCharge float64
	// NumCaps and NumSwitches are element counts.
	NumCaps, NumSwitches int
}

const (
	ridge       = 1e-11
	residualTol = 1e-6
)

// Analyze solves the topology for its ideal ratio and charge-multiplier
// vectors. It returns an error for inconsistent netlists (e.g. a switch
// network that shorts the input) or degenerate ones (no output path).
//
// Results are memoized package-wide by canonical netlist (see cache.go):
// repeated analyses of the same topology — every Explore call re-derives
// the handful of ratios in its search window — return the cached Analysis.
// The returned Analysis is shared; treat it as read-only.
func (t *Topology) Analyze() (*Analysis, error) {
	return t.analyzeCached()
}

// analyze is the uncached solve behind Analyze.
func (t *Topology) analyze() (*Analysis, error) {
	if len(t.Caps) == 0 && len(t.Switches) == 0 {
		return nil, fmt.Errorf("topology %s: empty netlist", t.Name)
	}
	v1, v2, vc, ratio, err := t.solveKVL()
	if err != nil {
		return nil, err
	}
	qc, qs, qin, err := t.solveKCL()
	if err != nil {
		return nil, err
	}
	an := &Analysis{
		Name:                t.Name,
		Ratio:               ratio,
		CapMultipliers:      make([]float64, len(t.Caps)),
		SwitchMultipliers:   make([]float64, len(t.Switches)),
		CapVoltages:         make([]float64, len(t.Caps)),
		CapBottomSwing:      make([]float64, len(t.Caps)),
		SwitchBlockVoltages: make([]float64, len(t.Switches)),
		InputCharge:         qin,
		NumCaps:             len(t.Caps),
		NumSwitches:         len(t.Switches),
	}
	for i, c := range t.Caps {
		an.CapMultipliers[i] = math.Abs(qc[i])
		an.CapVoltages[i] = math.Abs(vc[i])
		an.CapBottomSwing[i] = math.Abs(v1[c.Neg] - v2[c.Neg])
		an.SumAC += an.CapMultipliers[i]
	}
	for i, sw := range t.Switches {
		an.SwitchMultipliers[i] = math.Abs(qs[i])
		an.SumAR += an.SwitchMultipliers[i]
		// Blocking voltage in the off phase.
		var va, vb float64
		if sw.Phase == Phi1 {
			va, vb = v2[sw.A], v2[sw.B]
		} else {
			va, vb = v1[sw.A], v1[sw.B]
		}
		an.SwitchBlockVoltages[i] = math.Abs(va - vb)
	}
	return an, nil
}

// solveKVL solves for per-phase node potentials (normalized to Vin = 1),
// capacitor DC voltages, and the ideal ratio.
func (t *Topology) solveKVL() (v1, v2, vc []float64, ratio float64, err error) {
	n := t.numNodes
	nc := len(t.Caps)
	// Unknown layout: [v1(0..n-1), v2(0..n-1), vc(0..nc-1), M]
	cols := 2*n + nc + 1
	idxV := func(ph Phase, node Node) int {
		if ph == Phi1 {
			return int(node)
		}
		return n + int(node)
	}
	idxC := func(i int) int { return 2*n + i }
	idxM := 2*n + nc

	var rows [][]float64
	var rhs []float64
	addRow := func(entries map[int]float64, b float64) {
		row := make([]float64, cols)
		for j, v := range entries {
			row[j] = v
		}
		rows = append(rows, row)
		rhs = append(rhs, b)
	}
	for _, ph := range []Phase{Phi1, Phi2} {
		addRow(map[int]float64{idxV(ph, Gnd): 1}, 0)
		addRow(map[int]float64{idxV(ph, Vin): 1}, 1)
		addRow(map[int]float64{idxV(ph, Vout): 1, idxM: -1}, 0)
		for i, c := range t.Caps {
			addRow(map[int]float64{idxV(ph, c.Pos): 1, idxV(ph, c.Neg): -1, idxC(i): -1}, 0)
		}
	}
	for _, sw := range t.Switches {
		addRow(map[int]float64{idxV(sw.Phase, sw.A): 1, idxV(sw.Phase, sw.B): -1}, 0)
	}
	a := numeric.NewMatrixFrom(rows)
	x, err := numeric.LeastSquares(a, rhs, ridge)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("topology %s: KVL solve failed: %w", t.Name, err)
	}
	// Verify the least-squares solution actually satisfies the equations:
	// a large residual means the netlist over-constrains the voltages (e.g.
	// switches shorting Vin to Gnd in one phase).
	res := a.MulVec(x)
	for i := range res {
		res[i] -= rhs[i]
	}
	if numeric.Norm2(res) > residualTol {
		return nil, nil, nil, 0, fmt.Errorf("topology %s: inconsistent voltage constraints (residual %.2g) — netlist shorts a source or fights itself", t.Name, numeric.Norm2(res))
	}
	v1 = x[:n]
	v2 = x[n : 2*n]
	vc = x[2*n : 2*n+nc]
	ratio = x[idxM]
	if ratio <= 1e-9 {
		return nil, nil, nil, 0, fmt.Errorf("topology %s: degenerate conversion ratio %.3g — output not driven", t.Name, ratio)
	}
	return v1, v2, vc, ratio, nil
}

// solveKCL solves the per-phase charge-flow balance for one unit of output
// charge per cycle and returns per-capacitor and per-switch charges.
// Capacitor charge is parameterized as +q in phase 1 and -q in phase 2
// (periodic steady state). Where parallel switch paths make the flow
// distribution ambiguous, the minimum-norm solution is returned, which
// corresponds to the optimal (loss-minimizing) split assumed by the
// optimal-sizing SSL/FSL formulas.
func (t *Topology) solveKCL() (qc, qs []float64, qin float64, err error) {
	n := t.numNodes
	nc := len(t.Caps)
	ns := len(t.Switches)
	// Unknown layout: [qc(0..nc-1), qs(0..ns-1), qin1, qin2, qout1, qout2]
	cols := nc + ns + 4
	idxQC := func(i int) int { return i }
	idxQS := func(i int) int { return nc + i }
	idxIn := func(ph Phase) int { return nc + ns + int(ph) - 1 }
	idxOut := func(ph Phase) int { return nc + ns + 2 + int(ph) - 1 }

	var rows [][]float64
	var rhs []float64
	addRow := func(row []float64, b float64) {
		rows = append(rows, row)
		rhs = append(rhs, b)
	}
	for _, ph := range []Phase{Phi1, Phi2} {
		sign := 1.0
		if ph == Phi2 {
			sign = -1.0
		}
		for node := Node(0); node < Node(n); node++ {
			if node == Gnd {
				continue // ground absorbs the slack; skip to avoid redundancy
			}
			row := make([]float64, cols)
			used := false
			for i, c := range t.Caps {
				if c.Pos == node {
					row[idxQC(i)] -= sign // charge leaves node into cap + terminal
					used = true
				}
				if c.Neg == node {
					row[idxQC(i)] += sign
					used = true
				}
			}
			for i, sw := range t.Switches {
				if sw.Phase != ph {
					continue
				}
				if sw.A == node {
					row[idxQS(i)] -= 1 // positive qs flows A -> B
					used = true
				}
				if sw.B == node {
					row[idxQS(i)] += 1
					used = true
				}
			}
			if node == Vin {
				row[idxIn(ph)] += 1
				used = true
			}
			if node == Vout {
				row[idxOut(ph)] -= 1
				used = true
			}
			if used {
				addRow(row, 0)
			}
		}
	}
	// Normalize: one unit of charge delivered to the output per cycle.
	row := make([]float64, cols)
	row[idxOut(Phi1)] = 1
	row[idxOut(Phi2)] = 1
	addRow(row, 1)

	a := numeric.NewMatrixFrom(rows)
	x, err := numeric.LeastSquares(a, rhs, ridge)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("topology %s: KCL solve failed: %w", t.Name, err)
	}
	res := a.MulVec(x)
	for i := range res {
		res[i] -= rhs[i]
	}
	if numeric.Norm2(res) > residualTol {
		return nil, nil, 0, fmt.Errorf("topology %s: charge flow infeasible (residual %.2g) — no conductive path to the output", t.Name, numeric.Norm2(res))
	}
	qin = x[idxIn(Phi1)] + x[idxIn(Phi2)]
	return x[:nc], x[nc : nc+ns], qin, nil
}

// Custom wraps explicitly supplied charge-multiplier vectors into an
// Analysis, the escape hatch the paper offers advanced users. Voltage
// ratings default to the larger of |ratio| and |1-ratio| per element when
// not supplied.
func Custom(name string, ratio float64, capMult, switchMult []float64) (*Analysis, error) {
	if ratio <= 0 {
		return nil, fmt.Errorf("topology: custom %s: ratio must be positive", name)
	}
	if len(capMult) == 0 || len(switchMult) == 0 {
		return nil, fmt.Errorf("topology: custom %s: multiplier vectors must be non-empty", name)
	}
	an := &Analysis{
		Name:                name,
		Ratio:               ratio,
		CapMultipliers:      append([]float64(nil), capMult...),
		SwitchMultipliers:   append([]float64(nil), switchMult...),
		CapVoltages:         make([]float64, len(capMult)),
		CapBottomSwing:      make([]float64, len(capMult)),
		SwitchBlockVoltages: make([]float64, len(switchMult)),
		InputCharge:         ratio,
		NumCaps:             len(capMult),
		NumSwitches:         len(switchMult),
	}
	rating := math.Max(ratio, 1-ratio)
	for i, m := range capMult {
		if m < 0 {
			return nil, fmt.Errorf("topology: custom %s: negative capacitor multiplier", name)
		}
		an.SumAC += m
		an.CapVoltages[i] = rating
		an.CapBottomSwing[i] = ratio // conservative default for user topologies
	}
	for i, m := range switchMult {
		if m < 0 {
			return nil, fmt.Errorf("topology: custom %s: negative switch multiplier", name)
		}
		an.SumAR += m
		an.SwitchBlockVoltages[i] = rating
	}
	return an, nil
}
