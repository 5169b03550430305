package experiments

import (
	"context"

	"ivory/internal/core"
	"ivory/internal/report"
)

// Experiment is one entry of the experiment table cmd/ivory-exp runs. Run
// returns the experiment's text table and, when it has plot data, the
// function that writes its CSV files (nil otherwise).
type Experiment struct {
	Name string
	Run  func(ctx context.Context, s *Session) (text string, csv func(*report.Writer) error, err error)
}

// Session is the state one invocation shares across the experiments it
// runs: the transient-engine options and the Fig 10 noise analysis that
// Figs 10, 11 and 13 all read. The zero value is ready to use; a Session
// runs one experiment at a time and is not safe for concurrent use.
type Session struct {
	Opt    TransientOptions
	cached *Fig10Result
}

// noise returns the session's noise analysis, running it on first use.
// Only a successful result is kept: a failed (e.g. cancelled) attempt must
// not satisfy later callers with a partial analysis.
func (s *Session) noise(ctx context.Context) (*Fig10Result, error) {
	if s.cached != nil {
		return s.cached, nil
	}
	r, err := Fig10Run(ctx, s.Opt)
	if err != nil {
		return nil, err
	}
	s.cached = r
	return r, nil
}

// All is the experiment table in the order `ivory-exp all` runs and
// results/experiments.txt records it. Each entry names its runner and the
// renderers of its result: the text table and, when it has plot data, the
// CSV files.
var All = []Experiment{
	entry("fig4", func(context.Context, *Session) (*Fig4Result, error) { return Fig4(0) },
		(*Fig4Result).Format, (*Fig4Result).WriteCSV),
	entry("fig6", func(context.Context, *Session) (*Fig6Result, error) { return Fig6() },
		(*Fig6Result).Format, (*Fig6Result).WriteCSV),
	entry("fig7", func(context.Context, *Session) (*Fig7Result, error) { return Fig7() },
		(*Fig7Result).Format, (*Fig7Result).WriteCSV),
	entry("fig8", func(context.Context, *Session) (*Fig8Result, error) { return Fig8() },
		(*Fig8Result).Format, (*Fig8Result).WriteCSV),
	entry("fig9", func(context.Context, *Session) (*Fig9Result, error) { return Fig9() },
		(*Fig9Result).Format, (*Fig9Result).WriteCSV),
	entry("table1", func(context.Context, *Session) (string, error) { return Table1() },
		func(s string) string { return s }, nil),
	entry("table2", func(ctx context.Context, _ *Session) (*core.DistributionTable, error) { return Table2Context(ctx) },
		func(t *core.DistributionTable) string { return "Table 2 — " + t.Format() }, nil),
	entry("fig10", func(ctx context.Context, s *Session) (*Fig10Result, error) { return s.noise(ctx) },
		(*Fig10Result).Format, (*Fig10Result).WriteCSV),
	entry("fig11", func(ctx context.Context, s *Session) (*Fig10Result, error) { return s.noise(ctx) },
		(*Fig10Result).FormatFig11, (*Fig10Result).writeFig11CSV),
	entry("fig12", func(ctx context.Context, s *Session) (*Fig12Result, error) { return Fig12Run(ctx, s.Opt) },
		(*Fig12Result).Format, (*Fig12Result).WriteCSV),
	entry("fig13", func(ctx context.Context, s *Session) (*Fig13Result, error) {
		n, err := s.noise(ctx)
		if err != nil {
			return nil, err
		}
		return Fig13Run(ctx, n, s.Opt)
	}, (*Fig13Result).Format, (*Fig13Result).WriteCSV),
	entry("ablations", func(ctx context.Context, s *Session) (*AblationResult, error) { return AblationsRun(ctx, s.Opt) },
		(*AblationResult).Format, (*AblationResult).WriteCSV),
	entry("twostage", func(ctx context.Context, _ *Session) (*TwoStageResult, error) { return TwoStageContext(ctx) },
		(*TwoStageResult).Format, (*TwoStageResult).WriteCSV),
	entry("dvfs", func(ctx context.Context, _ *Session) (*DVFSResult, error) { return FastDVFSContext(ctx) },
		(*DVFSResult).Format, (*DVFSResult).WriteCSV),
	entry("families", func(context.Context, *Session) (*FamilyTransientsResult, error) { return FamilyTransients() },
		(*FamilyTransientsResult).Format, (*FamilyTransientsResult).WriteCSV),
	entry("gridscale", func(ctx context.Context, s *Session) (*GridScaleResult, error) { return GridScaleRun(ctx, s.Opt) },
		(*GridScaleResult).Format, (*GridScaleResult).WriteCSV),
	entry("gears", func(context.Context, *Session) (*GearsResult, error) { return Gears() },
		(*GearsResult).Format, (*GearsResult).WriteCSV),
	entry("variation", func(ctx context.Context, _ *Session) (*VariationResult, error) { return VariationContext(ctx, 0, 0) },
		(*VariationResult).Format, nil),
	entry("nodes", func(ctx context.Context, _ *Session) (*NodeSweepResult, error) { return NodeSweepContext(ctx) },
		(*NodeSweepResult).Format, (*NodeSweepResult).WriteCSV),
	entry("hybrid", func(ctx context.Context, s *Session) (*HybridResult, error) { return HybridRun(ctx, s.Opt) },
		(*HybridResult).Format, (*HybridResult).WriteCSV),
}

// entry builds an Experiment from a runner and its result's renderers; a
// nil csv leaves the experiment without CSV files.
func entry[R any](name string, run func(context.Context, *Session) (R, error),
	text func(R) string, csv func(R, *report.Writer) error) Experiment {
	return Experiment{name, func(ctx context.Context, s *Session) (string, func(*report.Writer) error, error) {
		r, err := run(ctx, s)
		if err != nil {
			return "", nil, err
		}
		if csv == nil {
			return text(r), nil, nil
		}
		return text(r), func(w *report.Writer) error { return csv(r, w) }, nil
	}}
}
