package experiments

import (
	"context"

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
// results/experiments.txt records it.
var All = []Experiment{
	entry("fig4", func(context.Context, *Session) (*Fig4Result, error) { return Fig4(0) }),
	entry("fig6", func(context.Context, *Session) (*Fig6Result, error) { return Fig6() }),
	entry("fig7", func(context.Context, *Session) (*Fig7Result, error) { return Fig7() }),
	entry("fig8", func(context.Context, *Session) (*Fig8Result, error) { return Fig8() }),
	entry("fig9", func(context.Context, *Session) (*Fig9Result, error) { return Fig9() }),
	entry("table1", func(context.Context, *Session) (textTable, error) {
		s, err := Table1()
		return textTable(s), err
	}),
	entry("table2", func(ctx context.Context, _ *Session) (textTable, error) {
		t, err := Table2Context(ctx)
		if err != nil {
			return "", err
		}
		return textTable("Table 2 — " + t.Format()), nil
	}),
	entry("fig10", func(ctx context.Context, s *Session) (*Fig10Result, error) { return s.noise(ctx) }),
	entry("fig11", func(ctx context.Context, s *Session) (fig11Result, error) {
		r, err := s.noise(ctx)
		return fig11Result{r}, err
	}),
	entry("fig12", func(ctx context.Context, s *Session) (*Fig12Result, error) { return Fig12Run(ctx, s.Opt) }),
	entry("fig13", func(ctx context.Context, s *Session) (*Fig13Result, error) {
		n, err := s.noise(ctx)
		if err != nil {
			return nil, err
		}
		return Fig13Run(ctx, n, s.Opt)
	}),
	entry("ablations", func(ctx context.Context, s *Session) (*AblationResult, error) { return AblationsRun(ctx, s.Opt) }),
	entry("twostage", func(ctx context.Context, _ *Session) (*TwoStageResult, error) { return TwoStageContext(ctx) }),
	entry("dvfs", func(ctx context.Context, _ *Session) (*DVFSResult, error) { return FastDVFSContext(ctx) }),
	entry("families", func(context.Context, *Session) (*FamilyTransientsResult, error) { return FamilyTransients() }),
	entry("gridscale", func(ctx context.Context, s *Session) (*GridScaleResult, error) { return GridScaleRun(ctx, s.Opt) }),
	entry("gears", func(context.Context, *Session) (*GearsResult, error) { return Gears() }),
	entry("variation", func(ctx context.Context, _ *Session) (*VariationResult, error) {
		return VariationContext(ctx, 0, 0)
	}),
	entry("nodes", func(ctx context.Context, _ *Session) (*NodeSweepResult, error) { return NodeSweepContext(ctx) }),
	entry("hybrid", func(ctx context.Context, s *Session) (*HybridResult, error) { return HybridRun(ctx, s.Opt) }),
}

// entry builds an Experiment from a runner whose result renders its text
// table (Format) and, if it has plot data, its CSV files (WriteCSV).
func entry[R interface{ Format() string }](name string, run func(context.Context, *Session) (R, error)) Experiment {
	return Experiment{name, func(ctx context.Context, s *Session) (string, func(*report.Writer) error, error) {
		r, err := run(ctx, s)
		if err != nil {
			return "", nil, err
		}
		var csv func(*report.Writer) error
		if d, ok := any(r).(interface{ WriteCSV(*report.Writer) error }); ok {
			csv = d.WriteCSV
		}
		return r.Format(), csv, nil
	}}
}

// textTable is a result that is only a text table.
type textTable string

func (t textTable) Format() string { return string(t) }

// fig11Result is the Fig 11 view of the noise analysis: the CFD traces of
// the same simulations Fig 10 summarizes.
type fig11Result struct{ *Fig10Result }

func (r fig11Result) Format() string { return r.FormatFig11() }
