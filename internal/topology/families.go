package topology

import "fmt"

// SeriesParallel returns the series-parallel converter with conversion
// ratio q/p (input p : output q, e.g. 3:1 or 3:2). The series-parallel
// family realizes the classic 1/p ratios (q = 1) and the complementary
// (p-1)/p ratios (q = p-1); other fractional ratios belong to the ladder
// family (see Ladder).
func SeriesParallel(p, q int) (*Topology, error) {
	if p < 2 || q < 1 || q >= p {
		return nil, fmt.Errorf("topology: series-parallel %d:%d: need p >= 2 and 1 <= q < p", p, q)
	}
	switch {
	case q == 1:
		return spDown(p), nil
	case q == p-1:
		return spFractional(p), nil
	default:
		return nil, fmt.Errorf("topology: series-parallel %d:%d not in the family (q must be 1 or p-1); use Ladder(%d, %d)", p, q, p, q)
	}
}

// spDown builds the classic series-parallel p:1 step-down converter:
// phase 1 stacks the p-1 flying caps in series between Vin and Vout, phase 2
// parallels all caps with the output.
func spDown(p int) *Topology {
	b := NewBuilder(fmt.Sprintf("series-parallel %d:1", p))
	nCaps := p - 1
	pos := make([]Node, nCaps)
	neg := make([]Node, nCaps)
	for i := 0; i < nCaps; i++ {
		pos[i] = b.NewNode()
		neg[i] = b.NewNode()
		b.AddCap(pos[i], neg[i], fmt.Sprintf("C%d", i+1))
	}
	// Phase 1: Vin - C1 - C2 - ... - C(p-1) - Vout chain.
	b.AddSwitch(Vin, pos[0], Phi1, "s_in")
	for i := 0; i < nCaps-1; i++ {
		b.AddSwitch(neg[i], pos[i+1], Phi1, fmt.Sprintf("s_link%d", i+1))
	}
	b.AddSwitch(neg[nCaps-1], Vout, Phi1, "s_out1")
	// Phase 2: every cap in parallel with the output.
	for i := 0; i < nCaps; i++ {
		b.AddSwitch(pos[i], Vout, Phi2, fmt.Sprintf("s_top%d", i+1))
		b.AddSwitch(neg[i], Gnd, Phi2, fmt.Sprintf("s_bot%d", i+1))
	}
	return b.Build()
}

// spFractional builds the series-parallel p:(p-1) converter: phase 1
// charges each of the p-1 caps between Vin and Vout (to Vin/p each), phase 2
// stacks them from ground to the output.
func spFractional(p int) *Topology {
	b := NewBuilder(fmt.Sprintf("series-parallel %d:%d", p, p-1))
	nCaps := p - 1
	pos := make([]Node, nCaps)
	neg := make([]Node, nCaps)
	for i := 0; i < nCaps; i++ {
		pos[i] = b.NewNode()
		neg[i] = b.NewNode()
		b.AddCap(pos[i], neg[i], fmt.Sprintf("C%d", i+1))
	}
	// Phase 1: each cap between Vin (pos) and Vout (neg).
	for i := 0; i < nCaps; i++ {
		b.AddSwitch(Vin, pos[i], Phi1, fmt.Sprintf("s_in%d", i+1))
		b.AddSwitch(neg[i], Vout, Phi1, fmt.Sprintf("s_mid%d", i+1))
	}
	// Phase 2: series stack Gnd - C(p-1) ... C1 - Vout.
	b.AddSwitch(neg[nCaps-1], Gnd, Phi2, "s_gnd")
	for i := nCaps - 1; i > 0; i-- {
		b.AddSwitch(pos[i], neg[i-1], Phi2, fmt.Sprintf("s_stk%d", i))
	}
	b.AddSwitch(pos[0], Vout, Phi2, "s_out2")
	return b.Build()
}

// Ladder returns the symmetric ladder converter with ratio q/p. The ladder
// consists of a DC capacitor string dividing Vin into p equal rungs, with
// p-1 flying capacitors that alternate between adjacent rungs to enforce the
// equal division; the output taps rung q. Any 1 <= q < p is supported,
// which is why the paper pairs the ladder with series-parallel as its two
// built-in families.
func Ladder(p, q int) (*Topology, error) {
	if p < 2 || q < 1 || q >= p {
		return nil, fmt.Errorf("topology: ladder %d:%d: need p >= 2 and 1 <= q < p", p, q)
	}
	b := NewBuilder(fmt.Sprintf("ladder %d:%d", p, q))
	// Rung nodes u_0 = Gnd, u_1 ... u_{p-1}, u_p = Vin; u_q = Vout.
	rung := make([]Node, p+1)
	rung[0] = Gnd
	rung[p] = Vin
	for j := 1; j < p; j++ {
		if j == q {
			rung[j] = Vout
		} else {
			rung[j] = b.NewNode()
		}
	}
	// DC string: one cap per rung interval. The interval attached to both
	// rails (only possible when p == 1) cannot occur here.
	for j := 1; j <= p; j++ {
		b.AddCap(rung[j], rung[j-1], fmt.Sprintf("D%d", j))
	}
	// Flying caps F_j alternate across interval j (phase 1) and j+1 (phase 2).
	for j := 1; j < p; j++ {
		fp := b.NewNode()
		fn := b.NewNode()
		b.AddCap(fp, fn, fmt.Sprintf("F%d", j))
		b.AddSwitch(fp, rung[j], Phi1, fmt.Sprintf("sF%d_t1", j))
		b.AddSwitch(fn, rung[j-1], Phi1, fmt.Sprintf("sF%d_b1", j))
		b.AddSwitch(fp, rung[j+1], Phi2, fmt.Sprintf("sF%d_t2", j))
		b.AddSwitch(fn, rung[j], Phi2, fmt.Sprintf("sF%d_b2", j))
	}
	return b.Build(), nil
}

// Dickson returns the Dickson (charge-pump) converter configured as a p:1
// step-down. It is generated as the canonical 1:p step-up ladder of
// alternately clocked flying caps and then operated in reverse, which yields
// the same charge-multiplier magnitudes.
func Dickson(p int) (*Topology, error) {
	if p < 2 {
		return nil, fmt.Errorf("topology: dickson %d:1: need p >= 2", p)
	}
	// Build step-down directly: think of the step-up pump from Vout (low
	// rail, here the output) to Vin and reverse the power flow. Cap j
	// (j = 1..p-1) has its bottom plate toggled between Gnd and Vout, and
	// its top plate switched along a chain whose far end reaches Vin.
	b := NewBuilder(fmt.Sprintf("dickson %d:1", p))
	tops := make([]Node, p-1)
	for j := 0; j < p-1; j++ {
		top := b.NewNode()
		bot := b.NewNode()
		tops[j] = top
		b.AddCap(top, bot, fmt.Sprintf("C%d", j+1))
		// Alternate the bottom-plate drive phase along the chain.
		chargePh := Phi1
		if j%2 == 1 {
			chargePh = Phi2
		}
		b.AddSwitch(bot, Gnd, chargePh, fmt.Sprintf("sB%d_g", j+1))
		b.AddSwitch(bot, Vout, chargePh.other(), fmt.Sprintf("sB%d_o", j+1))
	}
	// Top-plate chain: Vout -> C1 -> C2 -> ... -> C(p-1) -> Vin.
	// C_j charges (top connects toward the output side) in its charge phase
	// and hands charge up-chain in the other phase.
	for j := 0; j < p-1; j++ {
		chargePh := Phi1
		if j%2 == 1 {
			chargePh = Phi2
		}
		var lower Node
		if j == 0 {
			lower = Vout
		} else {
			lower = tops[j-1]
		}
		b.AddSwitch(tops[j], lower, chargePh, fmt.Sprintf("sT%d_lo", j+1))
	}
	// Last cap connects to Vin in its boost phase.
	lastPh := Phi1
	if (p-2)%2 == 1 {
		lastPh = Phi2
	}
	b.AddSwitch(tops[p-2], Vin, lastPh.other(), "sT_in")
	return b.Build(), nil
}

// Doubler returns a cascade of k 2:1 stages, realizing a 2^k : 1 step-down.
// Intermediate stages hand off through DC link capacitors.
func Doubler(k int) (*Topology, error) {
	if k < 1 {
		return nil, fmt.Errorf("topology: doubler: need k >= 1 stages")
	}
	b := NewBuilder(fmt.Sprintf("doubler %d:1 (%d stages)", 1<<k, k))
	hi := Vin
	for s := 0; s < k; s++ {
		var lo Node
		if s == k-1 {
			lo = Vout
		} else {
			lo = b.NewNode()
			// DC link capacitor stabilizing the intermediate rail.
			b.AddCap(lo, Gnd, fmt.Sprintf("Dc%d", s+1))
		}
		fp := b.NewNode()
		fn := b.NewNode()
		b.AddCap(fp, fn, fmt.Sprintf("F%d", s+1))
		// Alternate stage phasing to balance the two phases.
		ph := Phi1
		if s%2 == 1 {
			ph = Phi2
		}
		b.AddSwitch(fp, hi, ph, fmt.Sprintf("s%d_a", s+1))
		b.AddSwitch(fn, lo, ph, fmt.Sprintf("s%d_b", s+1))
		b.AddSwitch(fp, lo, ph.other(), fmt.Sprintf("s%d_c", s+1))
		b.AddSwitch(fn, Gnd, ph.other(), fmt.Sprintf("s%d_d", s+1))
		hi = lo
	}
	return b.Build(), nil
}

// Fibonacci returns the Fibonacci converter with k stages, realizing a
// Fib(k+2):1 step-down (k=1 -> 2:1, k=2 -> 3:1, k=3 -> 5:1, ...). It is the
// asymptotically ratio-densest two-phase family per capacitor.
func Fibonacci(k int) (*Topology, error) {
	if k < 1 {
		return nil, fmt.Errorf("topology: fibonacci: need k >= 1 stages")
	}
	// Build as a step-up from Vout to Vin (power flows down-conversion).
	// boosted[i] is the node reaching Fib(i+2)*Vout during that stage's
	// boost phase; stage i's cap charges to Fib(i+1)*Vout.
	b := NewBuilder(fmt.Sprintf("fibonacci %d stages", k))
	// Stage bookkeeping: prev = boosted node of stage i-1 (or Vout),
	// prevPrev = boosted node of stage i-2 (or Vout).
	prevPrev := Vout // "stage -1" output = Vout (1x)
	prev := Vout     // "stage 0" output  = Vout (1x)
	for i := 1; i <= k; i++ {
		ph := Phi1 // this stage boosts in ph, charges in the other
		if i%2 == 0 {
			ph = Phi2
		}
		top := b.NewNode()
		bot := b.NewNode()
		b.AddCap(top, bot, fmt.Sprintf("C%d", i))
		// Charge phase: top connects to the previous stage's boosted node
		// (which is boosted in ph.other()), bottom to ground.
		b.AddSwitch(top, prev, ph.other(), fmt.Sprintf("s%d_chg", i))
		b.AddSwitch(bot, Gnd, ph.other(), fmt.Sprintf("s%d_gnd", i))
		// Boost phase: bottom rides on stage i-2's boosted node.
		b.AddSwitch(bot, prevPrev, ph, fmt.Sprintf("s%d_ride", i))
		if i == k {
			// Final stage's boosted top is the high-voltage terminal: Vin.
			b.AddSwitch(top, Vin, ph, fmt.Sprintf("s%d_out", i))
		}
		prevPrev = prev
		prev = top
	}
	return b.Build(), nil
}
