package ivr

import (
	"errors"
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
