// Package ivr defines the result types shared by all integrated
// voltage-regulator models (switched-capacitor, buck, and linear). The
// static design trade-off module of every topology produces the same
// Metrics record so that the design-space optimizer can compare topologies
// commensurately — the paper stresses that modeling the shared building
// blocks identically across topologies is what makes cross-topology
// comparisons fair.
package ivr

import (
	"fmt"
	"math"

	"ivory/internal/numeric"
)

// LossBreakdown itemizes converter power losses (W).
type LossBreakdown struct {
	// Conduction covers output-impedance / switch-resistance conduction
	// loss, including SC regulation loss and buck DCR loss.
	Conduction float64
	// GateDrive covers switching loss of the power-switch gates and their
	// driver chains.
	GateDrive float64
	// Parasitic covers drain-junction and bottom-plate capacitor switching
	// losses.
	Parasitic float64
	// Leakage covers switch off-state and capacitor dielectric leakage, and
	// LDO quiescent current.
	Leakage float64
	// Control covers the feedback controller, comparators, and clock
	// generation.
	Control float64
	// Magnetic covers inductor winding (AC+DC) resistance loss for bucks.
	Magnetic float64
	// Dropout covers the intrinsic series-pass dissipation of linear
	// regulators.
	Dropout float64
}

// Total returns the summed loss (W).
func (l LossBreakdown) Total() float64 {
	return l.Conduction + l.GateDrive + l.Parasitic + l.Leakage + l.Control + l.Magnetic + l.Dropout
}

// Metrics is the static evaluation of one converter design at one operating
// point. All powers in watts, voltages in volts, areas in m².
type Metrics struct {
	// Topology names the converter (e.g. "series-parallel 3:1 SC").
	Topology string
	// VIn and VOut are the operating input/output voltages.
	VIn, VOut float64
	// ILoad is the evaluated load current (A).
	ILoad float64
	// POut is the delivered output power (W).
	POut float64
	// Loss itemizes the converter losses at this point.
	Loss LossBreakdown
	// Efficiency is POut / (POut + Loss.Total()).
	Efficiency float64
	// RippleVpp is the static peak-to-peak output voltage ripple (V).
	RippleVpp float64
	// FSw is the switching frequency used at this point (Hz); zero for
	// linear regulators.
	FSw float64
	// AreaDie is the silicon area of the converter (m²); AreaBoard is any
	// board/package footprint (discrete inductors, etc.).
	AreaDie, AreaBoard float64
}

// Finite verifies that every numeric field of the metrics is finite. The
// model packages call it at their Evaluate return boundaries so that a
// pathological sweep point becomes an error instead of a NaN that
// silently loses every comparison in the optimizer's ranking.
func (m *Metrics) Finite() error {
	// Scan the bare values first: only a metrics record with a non-finite
	// field builds the named table below to say which one.
	l := &m.Loss
	finite := true
	for _, v := range [...]float64{
		m.VIn, m.VOut, m.ILoad, m.POut, m.Efficiency, m.RippleVpp, m.FSw, m.AreaDie, m.AreaBoard,
		l.Conduction, l.GateDrive, l.Parasitic, l.Leakage, l.Control, l.Magnetic, l.Dropout,
	} {
		finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if finite {
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"VIn", m.VIn}, {"VOut", m.VOut}, {"ILoad", m.ILoad}, {"POut", m.POut},
		{"Efficiency", m.Efficiency}, {"RippleVpp", m.RippleVpp}, {"FSw", m.FSw},
		{"AreaDie", m.AreaDie}, {"AreaBoard", m.AreaBoard},
		{"Loss.Conduction", m.Loss.Conduction}, {"Loss.GateDrive", m.Loss.GateDrive},
		{"Loss.Parasitic", m.Loss.Parasitic}, {"Loss.Leakage", m.Loss.Leakage},
		{"Loss.Control", m.Loss.Control}, {"Loss.Magnetic", m.Loss.Magnetic},
		{"Loss.Dropout", m.Loss.Dropout},
	} {
		if err := numeric.Finite(f.name, f.v); err != nil {
			return fmt.Errorf("ivr: %s metrics not finite: %w", m.Topology, err)
		}
	}
	return nil
}

// String summarizes the metrics for logs and reports.
func (m Metrics) String() string {
	return fmt.Sprintf("%s: %.3gV->%.3gV @%.3gA eff=%.1f%% ripple=%.2gmV fsw=%.3gMHz area=%.3gmm2",
		m.Topology, m.VIn, m.VOut, m.ILoad, m.Efficiency*100, m.RippleVpp*1e3, m.FSw/1e6, m.AreaDie*1e6)
}

// InfeasibleError reports that a design cannot meet its operating point.
// The reason is formatted only when read: a design-space sweep rejects
// most of the configurations it sizes and never reads why.
type InfeasibleError struct {
	Design string
	format string
	args   []any
}

// Reason describes why the design is infeasible.
func (e *InfeasibleError) Reason() string { return fmt.Sprintf(e.format, e.args...) }

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("ivr: %s infeasible: %s", e.Design, e.Reason())
}

// Infeasible constructs an InfeasibleError. The args are kept unformatted
// until the message is read, so they must be values that do not change
// afterwards.
func Infeasible(design, format string, args ...any) error {
	return &InfeasibleError{Design: design, format: format, args: args}
}
