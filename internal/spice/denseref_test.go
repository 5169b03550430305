package spice

// Reference implementations of the transient and AC analyses as they were
// before the structure-aware kernel overhaul: a per-state dense rebuild
// for Tran and a fresh dense complex matrix per frequency for AC, each
// stamped element by element and solved by the plain pivoted Gaussian
// elimination in refSolve. They share neither the production assembler
// (mna.go) nor numeric.SparseLU. The equivalence suite pins the
// production paths against these — they are the ground truth the
// optimized kernels must reproduce within 1e-9 relative tolerance.

import (
	"fmt"
	"math"
	"math/cmplx"

	"ivory/internal/numeric"
)

// tranDenseRef is the pre-overhaul Tran: rebuilds the full MNA matrix per
// switch state (cached by state-vector string) and eliminates it afresh
// at every step.
func tranDenseRef(c *Circuit, h, T float64) (*Result, error) {
	if c.err != nil {
		return nil, c.err
	}
	if h <= 0 || T <= 0 || T < h {
		return nil, fmt.Errorf("spice: need 0 < h <= T (h=%g, T=%g)", h, T)
	}
	n := len(c.nodeName)
	nb := 0
	for _, e := range c.elems {
		if e.kind == kindV || e.kind == kindVCVS {
			e.branch = n + nb
			nb++
		}
	}
	dim := n + nb
	if dim == 0 {
		return nil, fmt.Errorf("spice: empty circuit")
	}
	for _, e := range c.elems {
		switch e.kind {
		case kindC:
			e.aux = e.ic
			e.state = 0
		case kindL:
			e.state = e.ic
			e.aux = 0
		}
	}
	steps := int(math.Ceil(T / h))
	res := &Result{
		Times:   make([]float64, 0, steps+1),
		V:       map[string][]float64{},
		SourceI: map[string][]float64{},
	}
	for _, name := range c.nodeName {
		res.V[name] = make([]float64, 0, steps+1)
	}
	for _, e := range c.elems {
		if e.kind == kindV {
			res.SourceI[e.name] = make([]float64, 0, steps+1)
		}
	}
	cache := map[string]*numeric.Matrix{}
	stateKey := func(t float64) string {
		key := make([]byte, 0, 8)
		for _, e := range c.elems {
			if e.kind == kindSW {
				if e.ctrl(t) {
					key = append(key, '1')
				} else {
					key = append(key, '0')
				}
			}
		}
		return string(key)
	}
	build := func(t float64) *numeric.Matrix {
		m := numeric.NewMatrix(dim, dim)
		stamp := func(a, b int, g float64) {
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
		for _, e := range c.elems {
			switch e.kind {
			case kindR:
				stamp(e.a, e.b, 1/e.value)
			case kindC:
				stamp(e.a, e.b, 2*e.value/h)
			case kindL:
				stamp(e.a, e.b, h/(2*e.value))
			case kindSW:
				r := e.roff
				if e.ctrl(t) {
					r = e.ron
				}
				stamp(e.a, e.b, 1/r)
			case kindV:
				if e.a >= 0 {
					m.Add(e.a, e.branch, 1)
					m.Add(e.branch, e.a, 1)
				}
				if e.b >= 0 {
					m.Add(e.b, e.branch, -1)
					m.Add(e.branch, e.b, -1)
				}
			case kindVCVS:
				if e.a >= 0 {
					m.Add(e.a, e.branch, 1)
					m.Add(e.branch, e.a, 1)
				}
				if e.b >= 0 {
					m.Add(e.b, e.branch, -1)
					m.Add(e.branch, e.b, -1)
				}
				if e.cp >= 0 {
					m.Add(e.branch, e.cp, -e.gain)
				}
				if e.cn >= 0 {
					m.Add(e.branch, e.cn, e.gain)
				}
			case kindVCCS:
				refStampVCCS(m, e)
			}
		}
		for i := 0; i < n; i++ {
			m.Add(i, i, 1e-12)
		}
		res.Refactorizations++
		return m
	}
	rhs := make([]float64, dim)
	x := make([]float64, dim)
	record := func(t float64) {
		res.Times = append(res.Times, t)
		for i, name := range c.nodeName {
			res.V[name] = append(res.V[name], x[i])
		}
		for _, e := range c.elems {
			if e.kind == kindV {
				res.SourceI[e.name] = append(res.SourceI[e.name], -x[e.branch])
			}
		}
	}
	// Initial backward-Euler step from ICs, identical to the production
	// path.
	{
		m := numeric.NewMatrix(dim, dim)
		stamp := func(a, b int, g float64) {
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
		for i := range rhs {
			rhs[i] = 0
		}
		addI := func(a, b int, i float64) {
			if a >= 0 {
				rhs[a] += i
			}
			if b >= 0 {
				rhs[b] -= i
			}
		}
		for _, e := range c.elems {
			switch e.kind {
			case kindR:
				stamp(e.a, e.b, 1/e.value)
			case kindC:
				g := e.value / h
				stamp(e.a, e.b, g)
				addI(e.a, e.b, g*e.aux)
			case kindL:
				g := h / e.value
				stamp(e.a, e.b, g)
				addI(e.a, e.b, -e.state)
			case kindSW:
				r := e.roff
				if e.ctrl(0) {
					r = e.ron
				}
				stamp(e.a, e.b, 1/r)
			case kindV:
				if e.a >= 0 {
					m.Add(e.a, e.branch, 1)
					m.Add(e.branch, e.a, 1)
				}
				if e.b >= 0 {
					m.Add(e.b, e.branch, -1)
					m.Add(e.branch, e.b, -1)
				}
				rhs[e.branch] = e.wave(0)
			case kindVCVS:
				if e.a >= 0 {
					m.Add(e.a, e.branch, 1)
					m.Add(e.branch, e.a, 1)
				}
				if e.b >= 0 {
					m.Add(e.b, e.branch, -1)
					m.Add(e.branch, e.b, -1)
				}
				if e.cp >= 0 {
					m.Add(e.branch, e.cp, -e.gain)
				}
				if e.cn >= 0 {
					m.Add(e.branch, e.cn, e.gain)
				}
			case kindVCCS:
				refStampVCCS(m, e)
			case kindI:
				addI(e.a, e.b, -e.wave(0))
			}
		}
		for i := 0; i < n; i++ {
			m.Add(i, i, 1e-12)
		}
		x0, err := refSolve(m.Data, rhs, dim, math.Abs)
		if err != nil {
			return nil, fmt.Errorf("spice: singular matrix at t=0: %w", err)
		}
		copy(x, x0)
		vAt := func(i int) float64 {
			if i < 0 {
				return 0
			}
			return x[i]
		}
		for _, e := range c.elems {
			switch e.kind {
			case kindC:
				e.aux = vAt(e.a) - vAt(e.b)
				e.state = 0
			case kindL:
				e.aux = 0
			}
		}
	}
	record(0)
	var lu *numeric.Matrix
	curKey := ""
	for s := 1; s <= steps; s++ {
		t := float64(s) * h
		key := stateKey(t)
		if lu == nil || key != curKey {
			if m, ok := cache[key]; ok {
				lu = m
			} else {
				lu = build(t)
				cache[key] = lu
			}
			curKey = key
		}
		for i := range rhs {
			rhs[i] = 0
		}
		addI := func(a, b int, i float64) {
			if a >= 0 {
				rhs[a] += i
			}
			if b >= 0 {
				rhs[b] -= i
			}
		}
		for _, e := range c.elems {
			switch e.kind {
			case kindC:
				g := 2 * e.value / h
				addI(e.a, e.b, g*e.aux+e.state)
			case kindL:
				g := h / (2 * e.value)
				addI(e.a, e.b, -(e.state + g*e.aux))
			case kindV:
				rhs[e.branch] = e.wave(t)
			case kindI:
				addI(e.a, e.b, -e.wave(t))
			}
		}
		xs, err := refSolve(lu.Data, rhs, dim, math.Abs)
		if err != nil {
			return nil, fmt.Errorf("spice: singular MNA matrix: %w", err)
		}
		copy(x, xs)
		res.Steps++
		vAt := func(i int) float64 {
			if i < 0 {
				return 0
			}
			return x[i]
		}
		for _, e := range c.elems {
			switch e.kind {
			case kindC:
				v := vAt(e.a) - vAt(e.b)
				g := 2 * e.value / h
				iNew := g*(v-e.aux) - e.state
				e.state = iNew
				e.aux = v
			case kindL:
				v := vAt(e.a) - vAt(e.b)
				g := h / (2 * e.value)
				iNew := e.state + g*(v+e.aux)
				e.state = iNew
				e.aux = v
			}
		}
		record(t)
	}
	return res, nil
}

// acDenseRef is the pre-overhaul AC: a fresh dense complex matrix and a
// full pivoted Gaussian elimination at every frequency.
func acDenseRef(c *Circuit, freqs []float64, acSource string) (*ACResult, error) {
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
	n := len(c.nodeName)
	nb := 0
	for _, e := range c.elems {
		if e.kind == kindV || e.kind == kindVCVS {
			e.branch = n + nb
			nb++
		}
	}
	dim := n + nb
	if dim == 0 {
		return nil, fmt.Errorf("spice: empty circuit")
	}
	res := &ACResult{Freqs: append([]float64(nil), freqs...), V: map[string][]complex128{}}
	for _, name := range c.nodeName {
		res.V[name] = make([]complex128, len(freqs))
	}
	for fi, f := range freqs {
		omega := 2 * math.Pi * f
		m := make([]complex128, dim*dim)
		rhs := make([]complex128, dim)
		stamp := func(a, b int, y complex128) {
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
		for _, e := range c.elems {
			switch e.kind {
			case kindR:
				stamp(e.a, e.b, complex(1/e.value, 0))
			case kindC:
				stamp(e.a, e.b, complex(0, omega*e.value))
			case kindL:
				if omega == 0 {
					stamp(e.a, e.b, complex(1e9, 0))
				} else {
					stamp(e.a, e.b, complex(0, -1/(omega*e.value)))
				}
			case kindSW:
				r := e.roff
				if e.ctrl(0) {
					r = e.ron
				}
				stamp(e.a, e.b, complex(1/r, 0))
			case kindV:
				if e.a >= 0 {
					m[e.a*dim+e.branch] += 1
					m[e.branch*dim+e.a] += 1
				}
				if e.b >= 0 {
					m[e.b*dim+e.branch] -= 1
					m[e.branch*dim+e.b] -= 1
				}
				if e.name == acSource {
					rhs[e.branch] = 1
				}
			case kindVCVS:
				if e.a >= 0 {
					m[e.a*dim+e.branch] += 1
					m[e.branch*dim+e.a] += 1
				}
				if e.b >= 0 {
					m[e.b*dim+e.branch] -= 1
					m[e.branch*dim+e.b] -= 1
				}
				if e.cp >= 0 {
					m[e.branch*dim+e.cp] -= complex(e.gain, 0)
				}
				if e.cn >= 0 {
					m[e.branch*dim+e.cn] += complex(e.gain, 0)
				}
			case kindVCCS:
				g := complex(e.gain, 0)
				addAt := func(row, col int, v complex128) {
					if row >= 0 && col >= 0 {
						m[row*dim+col] += v
					}
				}
				addAt(e.a, e.cp, g)
				addAt(e.a, e.cn, -g)
				addAt(e.b, e.cp, -g)
				addAt(e.b, e.cn, g)
			case kindI:
				if e.name == acSource {
					if e.a >= 0 {
						rhs[e.a] += 1
					}
					if e.b >= 0 {
						rhs[e.b] -= 1
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			m[i*dim+i] += 1e-12
		}
		x, err := refSolve(m, rhs, dim, cmplx.Abs)
		if err != nil {
			return nil, fmt.Errorf("spice: AC solve failed at %g Hz: %w", f, err)
		}
		for i, name := range c.nodeName {
			res.V[name][fi] = x[i]
		}
	}
	return res, nil
}

// refStampVCCS stamps a voltage-controlled current source: current
// gain*(v_cp - v_cn) flows from a to b.
func refStampVCCS(m *numeric.Matrix, e *element) {
	add := func(row, col int, v float64) {
		if row >= 0 && col >= 0 {
			m.Add(row, col, v)
		}
	}
	add(e.a, e.cp, e.gain)
	add(e.a, e.cn, -e.gain)
	add(e.b, e.cp, -e.gain)
	add(e.b, e.cn, e.gain)
}

// refSolve solves the dense row-major n-by-n system m*x = b by Gaussian
// elimination with partial pivoting on abs, carrying b along.
func refSolve[T float64 | complex128](m, b []T, n int, abs func(T) float64) ([]T, error) {
	a := make([]T, len(m))
	copy(a, m)
	x := make([]T, n)
	copy(x, b)
	for k := 0; k < n; k++ {
		p, mx := k, abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if ab := abs(a[i*n+k]); ab > mx {
				p, mx = i, ab
			}
		}
		if mx < 1e-300 {
			return nil, fmt.Errorf("singular matrix")
		}
		if p != k {
			for j := 0; j < n; j++ {
				a[p*n+j], a[k*n+j] = a[k*n+j], a[p*n+j]
			}
			x[p], x[k] = x[k], x[p]
		}
		piv := a[k*n+k]
		for i := k + 1; i < n; i++ {
			l := a[i*n+k] / piv
			if l == 0 {
				continue
			}
			a[i*n+k] = 0
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= l * a[k*n+j]
			}
			x[i] -= l * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= a[i*n+j] * x[j]
		}
		x[i] = s / a[i*n+i]
	}
	return x, nil
}
