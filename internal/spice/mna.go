package spice

import (
	"fmt"

	"ivory/internal/numeric"
)

// The MNA assembler behind Tran. It numbers the branches, stamps the
// matrix through stampMatrix with the companion conductances of the
// reactive elements and switches, and fills the transient start's
// right-hand side through stampRHS.

// gMin is the ground leak on every node; it keeps floating subcircuits
// well-posed.
const gMin = 1e-12

// numberBranches gives every voltage source (V and E) a branch row after
// the node rows and returns the MNA system dimension.
func (c *Circuit) numberBranches() (int, error) {
	dim := len(c.nodeName)
	for _, e := range c.elems {
		if e.kind == kindV || e.kind == kindVCVS {
			e.branch = dim
			dim++
		}
	}
	if dim == 0 {
		return 0, fmt.Errorf("spice: empty circuit")
	}
	return dim, nil
}

// stampMatrix stamps every element into m in element order: resistors,
// V/E branch incidence, E gains and G transconductances, then Gmin on
// every node. Capacitors, inductors and switches stamp the conductance g
// returns for them; 0 leaves the element out.
func (c *Circuit) stampMatrix(m *numeric.Matrix, g func(*element) float64) {
	add := func(row, col int, v float64) {
		if row >= 0 && col >= 0 {
			m.Add(row, col, v)
		}
	}
	for _, e := range c.elems {
		switch e.kind {
		case kindR:
			stampG(m, e.a, e.b, 1/e.value)
		case kindC, kindL, kindSW:
			if v := g(e); v != 0 {
				stampG(m, e.a, e.b, v)
			}
		case kindV, kindVCVS:
			add(e.a, e.branch, 1)
			add(e.branch, e.a, 1)
			add(e.b, e.branch, -1)
			add(e.branch, e.b, -1)
			if e.kind == kindVCVS {
				add(e.branch, e.cp, -e.gain)
				add(e.branch, e.cn, e.gain)
			}
		case kindVCCS:
			// Current gain*(v_cp - v_cn) flows from a to b.
			add(e.a, e.cp, e.gain)
			add(e.a, e.cn, -e.gain)
			add(e.b, e.cp, -e.gain)
			add(e.b, e.cn, e.gain)
		}
	}
	for i := range c.nodeName {
		m.Add(i, i, gMin)
	}
}

// stampRHS fills rhs for time t in element order: source voltages into
// their branch rows, independent currents, and the companion current ieq
// returns for each capacitor and inductor.
func (c *Circuit) stampRHS(rhs []float64, t float64, ieq func(*element) float64) {
	for i := range rhs {
		rhs[i] = 0
	}
	for _, e := range c.elems {
		switch e.kind {
		case kindC, kindL:
			addI(rhs, e.a, e.b, ieq(e))
		case kindV:
			rhs[e.branch] = e.wave(t)
		case kindI:
			addI(rhs, e.a, e.b, -e.wave(t))
		}
	}
}

// switchG is a switch's conductance in the state its control reports at t.
func (e *element) switchG(t float64) float64 {
	r := e.roff
	if e.ctrl(t) {
		r = e.ron
	}
	return 1 / r
}

// stampG stamps conductance g between nodes a and b (-1 = ground).
func stampG(m *numeric.Matrix, a, b int, g float64) {
	if a >= 0 {
		m.Add(a, a, g)
	}
	if b >= 0 {
		m.Add(b, b, g)
	}
	if a >= 0 && b >= 0 {
		m.Add(a, b, -g)
		m.Add(b, a, -g)
	}
}

// addI injects current i into node a and draws it out of node b.
func addI(rhs []float64, a, b int, i float64) {
	if a >= 0 {
		rhs[a] += i
	}
	if b >= 0 {
		rhs[b] -= i
	}
}
