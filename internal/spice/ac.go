package spice

import (
	"fmt"
	"math"
	"math/cmplx"

	"ivory/internal/numeric"
)

// ACResult holds a small-signal frequency sweep: per frequency, the complex
// node voltages in response to unit-amplitude excitation of the circuit's
// AC sources.
type ACResult struct {
	// Freqs are the analysis frequencies (Hz).
	Freqs []float64
	// V maps node name -> complex response per frequency.
	V map[string][]complex128
}

// Mag returns |V(node)| at sweep index k (0 for unknown nodes).
func (r *ACResult) Mag(node string, k int) float64 {
	w, ok := r.V[node]
	if !ok {
		return 0
	}
	return cmplx.Abs(w[k])
}

// PhaseDeg returns the phase of V(node) at sweep index k in degrees.
func (r *ACResult) PhaseDeg(node string, k int) float64 {
	w, ok := r.V[node]
	if !ok {
		return 0
	}
	return cmplx.Phase(w[k]) * 180 / math.Pi
}

// AC performs linear small-signal analysis across the given frequencies.
// Every V source contributes its DC value as a *unit* AC magnitude is not
// assumed: instead, acMag selects the source by name and drives it with
// amplitude 1 (all other independent sources are zeroed), which is the
// SPICE ".ac" convention. Switches are frozen in the state their control
// reports at t = 0. Capacitors and inductors stamp their complex
// admittances directly, so the result is exact at each frequency (no time
// stepping).
//
// The typical use is impedance extraction: drive a 1 A AC current source
// into a node and read that node's voltage — it *is* Z(jω).
func (c *Circuit) AC(freqs []float64, acSource string) (*ACResult, error) {
	if c.err != nil {
		return nil, c.err
	}
	if len(freqs) == 0 {
		return nil, fmt.Errorf("spice: AC needs at least one frequency")
	}
	found := false
	for _, e := range c.elems {
		if (e.kind == kindV || e.kind == kindI) && e.name == acSource {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("spice: AC source %q not found", acSource)
	}
	dim, err := c.numberBranches()
	if err != nil {
		return nil, err
	}
	n := len(c.nodeName)
	res := &ACResult{Freqs: append([]float64(nil), freqs...), V: map[string][]complex128{}}
	cols := make([][]complex128, n)
	for i, name := range c.nodeName {
		cols[i] = make([]complex128, len(freqs))
		res.V[name] = cols[i]
	}

	// The sweep shares one sparsity pattern: only the C/L admittance
	// values move with frequency. Assemble the frequency-invariant stamps
	// (R, frozen switches, source incidence, controlled sources, Gmin)
	// once into a real base matrix, lift it to complex, then per frequency
	// restamp the reactive admittances on a copy and renumerate the one
	// complex factorization — the pattern is analyzed at the first point
	// and only the numeric sweep runs thereafter (numeric.ComplexLU).
	inv := numeric.NewMatrix(dim, dim)
	c.stampMatrix(inv, func(e *element) float64 {
		if e.kind == kindSW {
			return e.switchG(0)
		}
		return 0
	})
	base := make([]complex128, dim*dim)
	for i, v := range inv.Data {
		base[i] = complex(v, 0)
	}
	stampY := func(m []complex128, a, b int, y complex128) {
		if a >= 0 {
			m[a*dim+a] += y
		}
		if b >= 0 {
			m[b*dim+b] += y
		}
		if a >= 0 && b >= 0 {
			m[a*dim+b] -= y
			m[b*dim+a] -= y
		}
	}
	// Reactive stamp plan (node pairs and values of the elements
	// restamped per frequency) and the unit excitation of acSource.
	type reactive struct {
		a, b int
		val  float64 // capacitance (F) or inductance (H)
		isL  bool
	}
	var reactives []reactive
	rhs := make([]complex128, dim)
	for _, e := range c.elems {
		switch e.kind {
		case kindC, kindL:
			reactives = append(reactives, reactive{a: e.a, b: e.b, val: e.value, isL: e.kind == kindL})
		case kindV:
			if e.name == acSource {
				rhs[e.branch] = 1
			}
		case kindI:
			if e.name == acSource {
				// Unit AC current driven from b into a (so that the
				// read voltage at a is +Z for a grounded b).
				if e.a >= 0 {
					rhs[e.a] += 1
				}
				if e.b >= 0 {
					rhs[e.b] -= 1
				}
			}
		}
	}

	m := make([]complex128, dim*dim)
	x := make([]complex128, dim)
	var lu *numeric.ComplexLU
	for fi, f := range freqs {
		omega := 2 * math.Pi * f
		copy(m, base)
		for _, r := range reactives {
			switch {
			case !r.isL:
				stampY(m, r.a, r.b, complex(0, omega*r.val))
			case omega == 0:
				stampY(m, r.a, r.b, complex(gShort, 0)) // DC short
			default:
				stampY(m, r.a, r.b, complex(0, -1/(omega*r.val)))
			}
		}
		if lu == nil {
			lu, err = numeric.NewComplexLU(m, dim)
		} else {
			err = lu.Refactor(m)
		}
		if err != nil {
			return nil, fmt.Errorf("spice: AC solve failed at %g Hz: %w", f, err)
		}
		lu.SolveInto(x, rhs)
		for i := range cols {
			cols[i][fi] = x[i]
		}
	}
	return res, nil
}
