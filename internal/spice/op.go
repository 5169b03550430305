package spice

import (
	"fmt"

	"ivory/internal/numeric"
)

// OPResult holds a DC operating point.
type OPResult struct {
	// V maps node name -> DC voltage.
	V map[string]float64
	// SourceI maps voltage-source name -> delivered DC current.
	SourceI map[string]float64
}

// OP computes the DC operating point: capacitors open, inductors short,
// switches frozen at their t = 0 state, sources at their t = 0 values.
// Inductor "shorts" are stamped as large conductances, capacitor "opens"
// as the solver's Gmin, which keeps the formulation identical to the
// transient stamps and the matrix well conditioned.
func (c *Circuit) OP() (*OPResult, error) {
	if c.err != nil {
		return nil, c.err
	}
	dim, err := c.numberBranches()
	if err != nil {
		return nil, err
	}
	m := numeric.NewMatrix(dim, dim)
	c.stampMatrix(m, func(e *element) float64 {
		switch e.kind {
		case kindC:
			return 0 // open; Gmin keeps the nodes defined
		case kindL:
			return gShort
		}
		return e.switchG(0)
	})
	rhs := make([]float64, dim)
	c.stampRHS(rhs, 0, nil)
	f, err := numeric.NewSparseLU(m)
	if err != nil {
		return nil, fmt.Errorf("spice: singular DC matrix: %w", err)
	}
	x := f.Solve(rhs)
	res := &OPResult{V: map[string]float64{}, SourceI: map[string]float64{}}
	for i, name := range c.nodeName {
		res.V[name] = x[i]
	}
	for _, e := range c.elems {
		if e.kind == kindV {
			res.SourceI[e.name] = -x[e.branch]
		}
	}
	return res, nil
}
