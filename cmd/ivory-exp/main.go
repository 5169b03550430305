// Command ivory-exp regenerates the paper's evaluation tables and figures,
// plus this reproduction's extension studies.
//
// Usage:
//
//	ivory-exp [-outdir dir] [-timeout 10m] [-progress] [-workers n] <experiment> [...]
//	ivory-exp all
//
// Experiments: fig4, fig6, fig7, fig8, fig9, table1, table2, fig10, fig11,
// fig12, fig13, ablations, twostage, dvfs, families, gridscale, gears,
// variation, nodes, hybrid; the table behind them is experiments.All.
// Text tables print to stdout; with -outdir, plot-ready CSV data files are
// written as well. See EXPERIMENTS.md for the paper-vs-measured comparison.
//
// ^C (or an elapsed -timeout) cancels the in-flight experiment's
// exploration and stops the run; `all` otherwise continues past individual
// experiment failures and exits nonzero at the end if any failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"ivory/internal/experiments"
	"ivory/internal/report"
)

func main() {
	outdir := flag.String("outdir", "", "write plot-ready CSV data files to this directory")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
	progress := flag.Bool("progress", false, "print per-experiment and per-cell progress to stderr")
	workers := flag.Int("workers", 0, "simulation-cell fan-out width (0 = all CPUs, 1 = serial)")
	flag.Parse()
	session := &experiments.Session{Opt: experiments.TransientOptions{Workers: *workers}}
	if *progress {
		// Per-cell telemetry from the transient engine: completed cells,
		// trace-cache effectiveness, and the explore/sim wall-time split.
		session.Opt.Progress = func(s experiments.TransientStats) {
			fmt.Fprintf(os.Stderr, "  engine: %s\n", s)
		}
	}
	names := make([]string, len(experiments.All))
	byName := make(map[string]experiments.Experiment, len(experiments.All))
	for i, e := range experiments.All {
		names[i] = e.Name
		byName[e.Name] = e
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintf(os.Stderr, "usage: ivory-exp [-outdir dir] [-timeout d] [-progress] [-workers n] <experiment|all> ...\nexperiments: %v\n", names)
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = names
	}
	// Validate every requested experiment before running any: a typo at the
	// end of the list should not cost an hour of compute first.
	for _, name := range args {
		if _, ok := byName[name]; !ok {
			fmt.Fprintf(os.Stderr, "ivory-exp: unknown experiment %q (have %v)\n", name, names)
			os.Exit(2)
		}
	}
	// ^C cancels the in-flight experiment's explorations instead of killing
	// the process, so partially written CSVs still get the summary below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var w *report.Writer
	if *outdir != "" {
		w = report.NewWriter(*outdir)
	}
	start := time.Now()
	failed := 0
	for k, name := range args {
		// A cancelled run stops here; individual experiment failures below
		// do not, so one broken figure can't abort the rest of `all`.
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "ivory-exp: run cancelled (%v) after %d/%d experiments\n", err, k, len(args))
			failed++
			break
		}
		if *progress {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s (%.0fs elapsed)\n", k+1, len(args), name, time.Since(start).Seconds())
		}
		text, csv, err := byName[name].Run(ctx, session)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ivory-exp: %s: %v\n", name, err)
			failed++
			continue
		}
		fmt.Println(text)
		if w != nil && csv != nil {
			if err := csv(w); err != nil {
				fmt.Fprintf(os.Stderr, "ivory-exp: %s: %v\n", name, err)
				failed++
			}
		}
	}
	if w != nil {
		for _, p := range w.Written {
			fmt.Fprintf(os.Stderr, "wrote %s\n", p)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "ivory-exp: %d of %d experiments failed\n", failed, len(args))
		os.Exit(1)
	}
}
