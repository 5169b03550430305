package dynamic

import (
	"context"
	"fmt"
	"math"

	"ivory/internal/ldo"
)

// LDOParams is the dynamic model of a digital LDO: a segmented pass array
// updated by a clocked bang-bang (or proportional) controller, discharging
// into the output capacitance. Between samples the load current rides
// directly on COut — the in-cycle behaviour.
type LDOParams struct {
	// VIn is the input voltage (V).
	VIn float64
	// GPass is the full-array conductance (S) and Segments the number of
	// independently switchable segments.
	GPass    float64
	Segments int
	// COut is the output capacitance (F).
	COut float64
	// FSample is the controller sampling frequency (Hz).
	FSample float64
	// Proportional selects a proportional (multi-segment step) update
	// instead of single-segment bang-bang.
	Proportional bool
}

// LDOFromDesign maps a static LDO design to dynamic parameters.
func LDOFromDesign(d *ldo.Design) LDOParams {
	cfg := d.Config()
	return LDOParams{
		VIn:      cfg.VIn,
		GPass:    cfg.GPass,
		Segments: 64,
		COut:     cfg.COut,
		FSample:  cfg.FSample,
	}
}

// LDOSimulator runs the digital-LDO dynamic model.
type LDOSimulator struct {
	P LDOParams
}

// Validate checks the parameters.
func (s *LDOSimulator) Validate() error {
	p := s.P
	if p.VIn <= 0 || p.GPass <= 0 || p.COut <= 0 || p.FSample <= 0 {
		return fmt.Errorf("dynamic: LDO VIn, GPass, COut, FSample must be positive")
	}
	if p.Segments < 1 {
		return fmt.Errorf("dynamic: LDO needs at least one segment")
	}
	return nil
}

// Run simulates the output over [0, T] at step dt under load iLoad(t) and
// reference vRef(t). Starts at vRef(0) with the pass array set to carry
// iLoad(0). ctx is polled every runCancelStride steps, as the SC loop
// does, so a cancelled case-study cell stops mid-waveform.
func (s *LDOSimulator) Run(ctx context.Context, iLoad, vRef Signal, T, dt float64) (*Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := validateRun(T, dt); err != nil {
		return nil, err
	}
	p := s.P
	sample := 1 / p.FSample
	if dt > sample {
		return nil, fmt.Errorf("dynamic: dt %g must resolve the sampling period %g", dt, sample)
	}
	gSeg := p.GPass / float64(p.Segments)
	v := vRef(0)
	// Initial segment count carrying the initial load.
	on := 0
	if head := p.VIn - v; head > 0 {
		on = int(math.Round(iLoad(0) / (gSeg * head)))
	}
	on = clampInt(on, 0, p.Segments)

	steps := int(math.Ceil(T / dt))
	tr := &Trace{Times: make([]float64, 0, steps+1), V: make([]float64, 0, steps+1)}
	tr.Times = append(tr.Times, 0)
	tr.V = append(tr.V, v)
	nextSample := sample
	for k := 1; k <= steps; k++ {
		if k%runCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		t := float64(k) * dt
		for nextSample <= t {
			e := vRef(nextSample) - v
			if p.Proportional {
				head := p.VIn - v
				if head > 0.01 {
					// Segment step proportional to the error slope.
					stepSegs := int(math.Round(e * p.COut * p.FSample / (gSeg * head)))
					on = clampInt(on+stepSegs, 0, p.Segments)
				}
			} else {
				if e > 0 {
					on = clampInt(on+1, 0, p.Segments)
				} else if e < 0 {
					on = clampInt(on-1, 0, p.Segments)
				}
			}
			nextSample += sample
			tr.SwitchEvents++
		}
		iPass := float64(on) * gSeg * (p.VIn - v)
		if iPass < 0 {
			iPass = 0
		}
		v += dt * (iPass - iLoad(t)) / p.COut
		tr.Times = append(tr.Times, t)
		tr.V = append(tr.V, v)
	}
	tr.AvgFSw = p.FSample
	if err := tr.Finite(); err != nil {
		return nil, err
	}
	return tr, nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
