// Package spice is a from-scratch transient circuit simulator in the SPICE
// tradition, built on modified nodal analysis (MNA) with trapezoidal
// companion models. It is Ivory's stand-in for the commercial SPICE/Cadence
// simulations the paper validates against (Figs. 4, 7-9): converter
// netlists are simulated switch-by-switch at fine time steps, and the
// analytical models are compared against the resulting waveforms,
// efficiencies, and runtimes.
//
// Supported elements: resistors, capacitors (trapezoidal companion),
// inductors (Norton companion), independent voltage sources (branch-current
// formulation), independent current sources, and time-controlled resistive
// switches. Switch state changes trigger a re-factorization of the MNA
// matrix; factorizations are cached per switch-state vector, so periodic
// two-phase converters pay the factorization cost only twice.
package spice

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"ivory/internal/numeric"
)

// Waveform is a time-stamped signal source: given t it returns a value.
type Waveform func(t float64) float64

// DC returns a constant waveform.
func DC(v float64) Waveform { return func(float64) float64 { return v } }

// PWL returns a piecewise-linear waveform through the (t, v) points; it
// holds the boundary values outside the range. Times must be increasing.
func PWL(ts, vs []float64) Waveform {
	return func(t float64) float64 { return numeric.Interp1(ts, vs, t) }
}

// periodFrac returns the position of t inside a cycle of the given period
// as a fraction in [0, 1). Floor-based rather than math.Mod: the phase
// comparators run once per switch per transient step, and math.Mod's
// software frexp/ldexp loop dominated the whole simulation profile.
func periodFrac(t, period float64) float64 {
	frac := t / period
	frac -= math.Floor(frac)
	return frac
}

// Pulse returns a square pulse train: v1 for the first duty fraction of
// each period, v0 otherwise.
func Pulse(v0, v1, period, duty float64) Waveform {
	return func(t float64) float64 {
		if periodFrac(t, period) < duty {
			return v1
		}
		return v0
	}
}

// Control decides whether a switch is closed at time t.
type Control func(t float64) bool

// TwoPhaseClock returns the control function for phase ph (1 or 2) of a
// two-phase non-overlapping clock at frequency fsw: phase 1 conducts during
// the first half period, phase 2 during the second, each shortened by the
// dead-time fraction on both edges to prevent shoot-through.
func TwoPhaseClock(fsw float64, ph int, deadFrac float64) Control {
	period := 1 / fsw
	return func(t float64) bool {
		frac := periodFrac(t, period)
		switch ph {
		case 1:
			return frac >= deadFrac && frac < 0.5-deadFrac
		default:
			return frac >= 0.5+deadFrac && frac < 1-deadFrac
		}
	}
}

// DutyClock returns a control closed during the first duty fraction of each
// switching period (inverted if invert is true) — the PWM drive of a buck
// converter's high side (and, inverted, its synchronous low side).
func DutyClock(fsw, duty float64, invert bool) Control {
	period := 1 / fsw
	return func(t float64) bool {
		on := periodFrac(t, period) < duty
		if invert {
			return !on
		}
		return on
	}
}

// element kinds
type elemKind int

const (
	kindR elemKind = iota
	kindC
	kindL
	kindV
	kindI
	kindSW
	kindVCVS // E: voltage-controlled voltage source
	kindVCCS // G: voltage-controlled current source
)

type element struct {
	kind  elemKind
	name  string
	a, b  int // node indices (-1 = ground)
	value float64
	ic    float64  // initial condition (V for caps, A for inductors)
	wave  Waveform // for V/I sources
	ctrl  Control  // for switches
	ron   float64
	roff  float64
	// controlled sources: sensing nodes and gain
	cp, cn int
	gain   float64

	// runtime state
	branch int     // branch index for V sources
	state  float64 // companion state: cap current / inductor current
	aux    float64 // companion auxiliary: cap voltage / inductor voltage
}

// Circuit is a netlist under construction.
type Circuit struct {
	nodeIdx  map[string]int
	nodeName []string
	elems    []*element
	err      error
	// save holds the node and voltage-source names Tran records; nil
	// records every one.
	save map[string]bool
}

// NewCircuit returns an empty circuit. Node "0" (and "gnd") is ground.
func NewCircuit() *Circuit {
	return &Circuit{nodeIdx: map[string]int{}}
}

func (c *Circuit) node(name string) int {
	if name == "0" || name == "gnd" || name == "GND" {
		return -1
	}
	if i, ok := c.nodeIdx[name]; ok {
		return i
	}
	i := len(c.nodeName)
	c.nodeIdx[name] = i
	c.nodeName = append(c.nodeName, name)
	return i
}

func (c *Circuit) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("spice: "+format, args...)
	}
}

// R adds a resistor of r ohms between nodes a and b.
func (c *Circuit) R(name, a, b string, r float64) {
	if r <= 0 {
		c.fail("resistor %s must have positive resistance", name)
		return
	}
	c.elems = append(c.elems, &element{kind: kindR, name: name, a: c.node(a), b: c.node(b), value: r})
}

// C adds a capacitor of f farads with initial voltage ic.
func (c *Circuit) C(name, a, b string, f, ic float64) {
	if f <= 0 {
		c.fail("capacitor %s must have positive capacitance", name)
		return
	}
	c.elems = append(c.elems, &element{kind: kindC, name: name, a: c.node(a), b: c.node(b), value: f, ic: ic})
}

// L adds an inductor of h henries with initial current ic (flowing a->b).
func (c *Circuit) L(name, a, b string, h, ic float64) {
	if h <= 0 {
		c.fail("inductor %s must have positive inductance", name)
		return
	}
	c.elems = append(c.elems, &element{kind: kindL, name: name, a: c.node(a), b: c.node(b), value: h, ic: ic})
}

// V adds an independent voltage source (a positive w.r.t. b).
func (c *Circuit) V(name, a, b string, w Waveform) {
	c.elems = append(c.elems, &element{kind: kindV, name: name, a: c.node(a), b: c.node(b), wave: w})
}

// I adds an independent current source drawing current from a into b
// through the source (conventional direction a->b).
func (c *Circuit) I(name, a, b string, w Waveform) {
	c.elems = append(c.elems, &element{kind: kindI, name: name, a: c.node(a), b: c.node(b), wave: w})
}

// SW adds a time-controlled switch with on-resistance ron (off-conductance
// is a tiny leak keeping the matrix well-posed).
func (c *Circuit) SW(name, a, b string, ron float64, ctrl Control) {
	if ron <= 0 {
		c.fail("switch %s must have positive on-resistance", name)
		return
	}
	c.elems = append(c.elems, &element{
		kind: kindSW, name: name, a: c.node(a), b: c.node(b),
		ron: ron, roff: 1e12, ctrl: ctrl,
	})
}

// E adds a voltage-controlled voltage source: v(a,b) = gain * v(cp,cn).
func (c *Circuit) E(name, a, b, cp, cn string, gain float64) {
	c.elems = append(c.elems, &element{
		kind: kindVCVS, name: name,
		a: c.node(a), b: c.node(b),
		cp: c.node(cp), cn: c.node(cn), gain: gain,
	})
}

// G adds a voltage-controlled current source: i(a->b) = gain * v(cp,cn),
// i.e. a transconductance of `gain` siemens.
func (c *Circuit) G(name, a, b, cp, cn string, gain float64) {
	c.elems = append(c.elems, &element{
		kind: kindVCCS, name: name,
		a: c.node(a), b: c.node(b),
		cp: c.node(cp), cn: c.node(cn), gain: gain,
	})
}

// Save makes Tran record only the named node voltages and voltage-source
// currents, as a SPICE .save card does; without it every node and source
// is recorded. An unsaved waveform costs neither memory nor per-step
// stores, which counts on long runs: Fig. 4's 500 MHz point keeps 1.6e5
// samples per column. Tran reports a name that is neither a node nor a
// voltage source.
func (c *Circuit) Save(names ...string) {
	c.save = map[string]bool{}
	for _, n := range names {
		c.save[n] = true
	}
}

// Nodes returns the sorted non-ground node names.
func (c *Circuit) Nodes() []string {
	out := append([]string(nil), c.nodeName...)
	sort.Strings(out)
	return out
}

// Result holds a transient simulation's sampled waveforms.
type Result struct {
	// Times holds the sample instants, including t = 0.
	Times []float64
	// V maps node name -> waveform. Ground is not included.
	V map[string][]float64
	// SourceI maps voltage-source name -> branch current (flowing from the
	// + terminal through the source).
	SourceI map[string][]float64
	// Steps counts solver steps; Refactorizations counts LU factorizations
	// triggered by switch-state changes (useful for performance analysis).
	Steps, Refactorizations int
}

// At returns the voltage of node at sample k (ground returns 0).
func (r *Result) At(node string, k int) float64 {
	w, ok := r.V[node]
	if !ok {
		return 0
	}
	return w[k]
}

// Avg returns the time-average of the node voltage over the last fraction
// `window` of the run (window in (0,1]; e.g. 0.5 = second half).
func (r *Result) Avg(node string, window float64) float64 {
	w, ok := r.V[node]
	if !ok || len(w) == 0 {
		return 0
	}
	start := int(float64(len(w)) * (1 - window))
	if start < 0 {
		start = 0
	}
	return numeric.Mean(w[start:])
}

// AvgPower returns the average of v(node)*i(source) over the trailing
// window — the power delivered by the named voltage source when node is its
// positive terminal.
func (r *Result) AvgPower(node, source string, window float64) float64 {
	v, ok := r.V[node]
	iw, ok2 := r.SourceI[source]
	if !ok || !ok2 || len(v) == 0 {
		return 0
	}
	start := int(float64(len(v)) * (1 - window))
	if start < 0 {
		start = 0
	}
	sum := 0.0
	for k := start; k < len(v); k++ {
		sum += v[k] * iw[k]
	}
	return sum / float64(len(v)-start)
}

// swStamp is the precomputed plan for one switch: its node pair, on/off
// conductances, and control. Switches are the only elements whose matrix
// stamps change during a transient run, so state changes restamp exactly
// these positions on top of the time-invariant base matrix.
type swStamp struct {
	a, b     int
	gon, gof float64
	ctrl     Control
}

// rhsStamp is the precomputed plan for one right-hand-side contributor
// (companion current of a cap/inductor, or an independent source).
type rhsStamp struct {
	a, b int
	g    float64 // companion conductance (caps/inductors)
	e    *element
}

// maxTranSamples caps the samples (ceil(T/h) + 1) one Tran may record.
// Every saved node and voltage source keeps a float64 column of that
// length, so the cap turns a mistyped step or span into an error instead
// of an out-of-range allocation. The largest paper run (Fig. 4 at 500 MHz)
// records about 1.6e5 samples.
const maxTranSamples = 1 << 24

// Tran runs a transient simulation with fixed step h over [0, T]. Initial
// conditions come from the declared element ICs (nodes start at the voltage
// implied by capacitor ICs where determined, 0 otherwise, via one backward-
// Euler start step).
//
// The linear-algebra core is structure-aware: the MNA matrix is stamped
// once into a base matrix, switch-state changes restamp only the switch
// conductances and renumerate the one shared symbolic LU factorization
// (see numeric.SparseLU), and the per-step loop — right-hand-side refresh,
// solve, companion update, waveform record — allocates nothing.
func (c *Circuit) Tran(h, T float64) (*Result, error) {
	if c.err != nil {
		return nil, c.err
	}
	if !(h > 0 && T >= h) || math.IsInf(T, 0) {
		return nil, fmt.Errorf("spice: need finite 0 < h <= T (h=%g, T=%g)", h, T)
	}
	if samples := math.Ceil(T/h) + 1; samples > maxTranSamples {
		return nil, fmt.Errorf("spice: T/h asks for %.3g samples, more than the %d limit (h=%g, T=%g)",
			samples, maxTranSamples, h, T)
	}
	dim, err := c.numberBranches()
	if err != nil {
		return nil, err
	}
	// Initialize companion states from ICs and gather the per-kind stamp
	// plans that drive the allocation-free inner loop.
	var caps, inds []rhsStamp
	var vsrcs, isrcs []*element
	var sws []swStamp
	for _, e := range c.elems {
		switch e.kind {
		case kindC:
			e.aux = e.ic // cap voltage
			e.state = 0  // cap current
			caps = append(caps, rhsStamp{a: e.a, b: e.b, g: 2 * e.value / h, e: e})
		case kindL:
			e.state = e.ic // inductor current
			e.aux = 0      // inductor voltage
			inds = append(inds, rhsStamp{a: e.a, b: e.b, g: h / (2 * e.value), e: e})
		case kindV:
			vsrcs = append(vsrcs, e)
		case kindI:
			isrcs = append(isrcs, e)
		case kindSW:
			sws = append(sws, swStamp{a: e.a, b: e.b, gon: 1 / e.ron, gof: 1 / e.roff, ctrl: e.ctrl})
		}
	}

	for name := range c.save {
		_, node := c.nodeIdx[name]
		if !node && !slices.ContainsFunc(vsrcs, func(e *element) bool { return e.name == name }) {
			return nil, fmt.Errorf("spice: Save names %q, which is neither a node nor a voltage source", name)
		}
	}

	steps := int(math.Ceil(T / h))
	res := &Result{
		Times:   make([]float64, steps+1),
		V:       map[string][]float64{},
		SourceI: map[string][]float64{},
	}
	// Full-length waveform columns, each tied to its solution index: the
	// record path must not hash node names or grow slices per step.
	type column struct {
		x int
		w []float64
	}
	saved := func(name string) bool { return c.save == nil || c.save[name] }
	var vcols, srcCols []column
	for i, name := range c.nodeName {
		if saved(name) {
			vcols = append(vcols, column{i, make([]float64, steps+1)})
			res.V[name] = vcols[len(vcols)-1].w
		}
	}
	for _, e := range vsrcs {
		if saved(e.name) {
			srcCols = append(srcCols, column{e.branch, make([]float64, steps+1)})
			res.SourceI[e.name] = srcCols[len(srcCols)-1].w
		}
	}

	// Base MNA matrix: every time-invariant stamp (R, companion C/L
	// conductances, source/controlled-source incidence, Gmin). Switch
	// conductances are restamped per cached state into work.
	base := numeric.NewMatrix(dim, dim)
	c.stampMatrix(base, func(e *element) float64 {
		switch e.kind {
		case kindC:
			return 2 * e.value / h
		case kindL:
			return h / (2 * e.value)
		}
		return 0
	})
	work := numeric.NewMatrix(dim, dim)

	// Factorization cache keyed by the switch state, one bit per switch
	// packed into key, which always holds the current step's state. The
	// first state pays the symbolic analysis; every further state forks the
	// shared symbolic structure and redoes only the numeric sweep. A lookup
	// through cache[string(key)] does not allocate; only a new state's
	// insertion copies its key.
	key := make([]byte, (len(sws)+7)/8)
	cache := map[string]*numeric.SparseLU{}
	var symSeed *numeric.SparseLU
	build := func(t float64) (*numeric.SparseLU, error) {
		copy(work.Data, base.Data)
		for i := range sws {
			g := sws[i].gof
			if sws[i].ctrl(t) {
				g = sws[i].gon
			}
			stampG(work, sws[i].a, sws[i].b, g)
		}
		res.Refactorizations++
		if symSeed == nil {
			f, err := numeric.NewSparseLU(work)
			if err != nil {
				return nil, fmt.Errorf("spice: singular MNA matrix: %w", err)
			}
			symSeed = f
			return f, nil
		}
		f := symSeed.Fork()
		if err := f.Refactor(work); err != nil {
			return nil, fmt.Errorf("spice: singular MNA matrix: %w", err)
		}
		return f, nil
	}

	rhs := make([]float64, dim)
	x := make([]float64, dim)
	vAt := func(i int) float64 {
		if i < 0 {
			return 0
		}
		return x[i]
	}
	record := func(s int, t float64) {
		res.Times[s] = t
		for _, col := range vcols {
			col.w[s] = x[col.x]
		}
		for _, col := range srcCols {
			// MNA branch current flows + -> - inside the source; the
			// current delivered by the source is its negative.
			col.w[s] = -x[col.x]
		}
	}

	// Initial solve at t=0: one backward-Euler step of size h from the
	// declared ICs. The companion conductances C/h and h/L stay within the
	// dynamic range of the regular stamps, keeping the matrix well
	// conditioned; capacitor voltages relax by at most one step from their
	// ICs, which the warm-up cycles absorb.
	m0 := numeric.NewMatrix(dim, dim)
	c.stampMatrix(m0, func(e *element) float64 {
		switch e.kind {
		case kindC:
			return e.value / h
		case kindL:
			return h / e.value
		}
		return e.switchG(0)
	})
	c.stampRHS(rhs, 0, func(e *element) float64 {
		if e.kind == kindC {
			return e.value / h * e.aux // pins v_ab ~ ic
		}
		return -e.state
	})
	f0, err := numeric.NewSparseLU(m0)
	if err != nil {
		return nil, fmt.Errorf("spice: singular matrix at t=0: %w", err)
	}
	f0.SolveInto(x, rhs)
	// Seed companion states from the t=0 solution.
	for i := range caps {
		caps[i].e.aux = vAt(caps[i].a) - vAt(caps[i].b)
		caps[i].e.state = 0
	}
	for i := range inds {
		inds[i].e.aux = 0
	}
	record(0, 0)

	var lu *numeric.SparseLU
	for s := 1; s <= steps; s++ {
		t := float64(s) * h
		changed := lu == nil
		for b := range key {
			var v byte
			for i := 8 * b; i < len(sws) && i < 8*b+8; i++ {
				if sws[i].ctrl(t) {
					v |= 1 << (i & 7)
				}
			}
			changed = changed || v != key[b]
			key[b] = v
		}
		if changed {
			if f, ok := cache[string(key)]; ok {
				lu = f
			} else {
				f, err := build(t)
				if err != nil {
					return nil, err
				}
				cache[string(key)] = f
				lu = f
			}
		}
		for i := range rhs {
			rhs[i] = 0
		}
		for i := range caps {
			// Trapezoidal companion: Ieq = g*v + i (into node a).
			st := &caps[i]
			addI(rhs, st.a, st.b, st.g*st.e.aux+st.e.state)
		}
		for i := range inds {
			// Norton companion: Ieq = -(i + g*v).
			st := &inds[i]
			addI(rhs, st.a, st.b, -(st.e.state + st.g*st.e.aux))
		}
		for _, e := range vsrcs {
			rhs[e.branch] = e.wave(t)
		}
		for _, e := range isrcs {
			addI(rhs, e.a, e.b, -e.wave(t))
		}
		lu.SolveInto(x, rhs)
		res.Steps++
		// Update companion states.
		for i := range caps {
			st := &caps[i]
			v := vAt(st.a) - vAt(st.b)
			iNew := st.g*(v-st.e.aux) - st.e.state
			st.e.state = iNew
			st.e.aux = v
		}
		for i := range inds {
			st := &inds[i]
			v := vAt(st.a) - vAt(st.b)
			iNew := st.e.state + st.g*(v+st.e.aux)
			st.e.state = iNew
			st.e.aux = v
		}
		record(s, t)
	}
	return res, nil
}
