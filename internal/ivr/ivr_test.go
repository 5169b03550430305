package ivr

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ivory/internal/numeric"
)

func TestLossBreakdownTotal(t *testing.T) {
	l := LossBreakdown{
		Conduction: 1, GateDrive: 2, Parasitic: 3,
		Leakage: 4, Control: 5, Magnetic: 6, Dropout: 7,
	}
	if !numeric.ApproxEqual(l.Total(), 28, 0) {
		t.Errorf("Total = %v, want 28", l.Total())
	}
	var zero LossBreakdown
	if zero.Total() != 0 {
		t.Error("zero breakdown should total 0")
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{
		Topology: "test SC", VIn: 3.3, VOut: 1.0, ILoad: 2,
		POut: 2, Efficiency: 0.8, RippleVpp: 5e-3, FSw: 100e6, AreaDie: 4e-6,
	}
	s := m.String()
	for _, want := range []string{"test SC", "80.0%", "100", "5"} {
		if !strings.Contains(s, want) {
			t.Errorf("Metrics.String missing %q: %s", want, s)
		}
	}
}

func TestInfeasibleError(t *testing.T) {
	err := Infeasible("my design", "needs %d more %s", 3, "capacitors")
	var inf *InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatal("Infeasible must produce an *InfeasibleError")
	}
	if inf.Design != "my design" {
		t.Errorf("design = %q", inf.Design)
	}
	if got, want := inf.Reason(), "needs 3 more capacitors"; got != want {
		t.Errorf("Reason() = %q, want %q", got, want)
	}
	if got, want := err.Error(), "ivr: my design infeasible: needs 3 more capacitors"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}

// TestMetricsFinite checks Finite field by field: a NaN or an infinity in
// any numeric field is an error naming that field, two opposite
// infinities name the first, and finite values at the top of the range
// pass.
func TestMetricsFinite(t *testing.T) {
	base := Metrics{Topology: "t", VIn: 3.3, VOut: 1, ILoad: 2, POut: 2, Efficiency: 0.8,
		RippleVpp: 1e-3, FSw: 1e8, AreaDie: 1e-6, Loss: LossBreakdown{Conduction: 0.1, Dropout: 0.2}}
	if err := base.Finite(); err != nil {
		t.Fatalf("finite metrics: %v", err)
	}
	type field struct {
		name string
		v    func(*Metrics) *float64
	}
	fields := []field{
		{"VIn", func(m *Metrics) *float64 { return &m.VIn }},
		{"VOut", func(m *Metrics) *float64 { return &m.VOut }},
		{"ILoad", func(m *Metrics) *float64 { return &m.ILoad }},
		{"POut", func(m *Metrics) *float64 { return &m.POut }},
		{"Efficiency", func(m *Metrics) *float64 { return &m.Efficiency }},
		{"RippleVpp", func(m *Metrics) *float64 { return &m.RippleVpp }},
		{"FSw", func(m *Metrics) *float64 { return &m.FSw }},
		{"AreaDie", func(m *Metrics) *float64 { return &m.AreaDie }},
		{"AreaBoard", func(m *Metrics) *float64 { return &m.AreaBoard }},
		{"Loss.Conduction", func(m *Metrics) *float64 { return &m.Loss.Conduction }},
		{"Loss.GateDrive", func(m *Metrics) *float64 { return &m.Loss.GateDrive }},
		{"Loss.Parasitic", func(m *Metrics) *float64 { return &m.Loss.Parasitic }},
		{"Loss.Leakage", func(m *Metrics) *float64 { return &m.Loss.Leakage }},
		{"Loss.Control", func(m *Metrics) *float64 { return &m.Loss.Control }},
		{"Loss.Magnetic", func(m *Metrics) *float64 { return &m.Loss.Magnetic }},
		{"Loss.Dropout", func(m *Metrics) *float64 { return &m.Loss.Dropout }},
	}
	for _, f := range fields {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			m := base
			*f.v(&m) = bad
			if err := m.Finite(); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: Finite() = %v, want an error naming the field", f.name, bad, err)
			}
		}
		m := base
		*f.v(&m) = math.MaxFloat64
		if err := m.Finite(); err != nil {
			t.Errorf("%s = MaxFloat64: Finite() = %v, want nil", f.name, err)
		}
	}
	m := base
	m.VIn, m.Loss.Dropout = math.Inf(1), math.Inf(-1)
	if err := m.Finite(); err == nil || !strings.Contains(err.Error(), "VIn") {
		t.Errorf("opposite infinities: Finite() = %v, want an error naming VIn", err)
	}
	m = base
	m.VIn, m.VOut = math.MaxFloat64, math.MaxFloat64
	if err := m.Finite(); err != nil {
		t.Errorf("two MaxFloat64 fields: Finite() = %v, want nil", err)
	}
}
