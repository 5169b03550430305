// Command ivory is the command-line front end of the Ivory design space
// exploration tool.
//
// Usage:
//
//	ivory nodes
//	ivory topology  -family sp -p 3 -q 1
//	ivory explore   -node 45nm -vin 3.3 -vout 1.0 -imax 6 -area-mm2 6 [-objective eff|area|noise] [-search exhaustive|adaptive] [-stream] [-top 10] [-json] [-timeout 30s] [-progress] [-workers N]
//	ivory table2    -node 45nm -vin 3.3 -vout 1.0 -imax 23.5 -area-mm2 20 [-counts 1,2,4]
//	ivory dynamic   -node 45nm -vin 3.3 -vout 1.0 -imax 6 -area-mm2 6 -step-to 9 [-csv out.csv]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"ivory"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "nodes":
		err = cmdNodes()
	case "topology":
		err = cmdTopology(os.Args[2:])
	case "explore":
		err = cmdExplore(os.Args[2:])
	case "table2":
		err = cmdTable2(os.Args[2:])
	case "dynamic":
		err = cmdDynamic(os.Args[2:])
	case "sim":
		err = cmdSim(os.Args[2:])
	case "node-dump":
		err = cmdNodeDump(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "ivory: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivory:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `ivory — IVR design space exploration

commands:
  nodes      list built-in technology nodes
  topology   analyze an SC topology (charge multipliers, ratio)
  explore    run the design-space optimizer for a spec
  table2     explore across distributed-IVR counts
  dynamic    simulate a load-step transient of the best SC design
  sim        run a transient on a SPICE-style text netlist
  node-dump  write a technology node as JSON (template for custom nodes)`)
}

// specFlags registers the spec and run-control flags. The returned getter
// builds the spec — Context wired to SIGINT (and -timeout when set),
// Progress wired to a stderr ticker under -progress — plus a cleanup
// function the command must defer to release the signal registration.
func specFlags(fs *flag.FlagSet) func() (ivory.Spec, context.CancelFunc, error) {
	node := fs.String("node", "45nm", "technology node")
	vin := fs.Float64("vin", 3.3, "input voltage (V)")
	vout := fs.Float64("vout", 1.0, "output voltage target (V)")
	imax := fs.Float64("imax", 6, "maximum load current (A)")
	area := fs.Float64("area-mm2", 6, "die area budget (mm2)")
	objective := fs.String("objective", "eff", "optimization objective: eff|area|noise (or max-efficiency|min-area|min-noise)")
	search := fs.String("search", "exhaustive", "search strategy: exhaustive|adaptive (adaptive prunes dominated configurations without sizing them)")
	timeout := fs.Duration("timeout", 0, "abort the exploration after this long (0 = no limit)")
	progress := fs.Bool("progress", false, "print live exploration progress to stderr")
	workers := fs.Int("workers", 0, "exploration worker count (0 = one per CPU, 1 = serial)")
	return func() (ivory.Spec, context.CancelFunc, error) {
		s := ivory.Spec{
			NodeName: *node,
			VIn:      *vin,
			VOut:     *vout,
			IMax:     *imax,
			AreaMax:  *area * 1e-6,
			Workers:  *workers,
		}
		obj, err := ivory.ParseObjective(*objective)
		if err != nil {
			return s, nil, err
		}
		s.Objective = obj
		strategy, err := ivory.ParseSearch(*search)
		if err != nil {
			return s, nil, err
		}
		s.Search = strategy
		// ^C cancels the exploration instead of killing the process: the
		// run drains in-flight jobs and the command still prints whatever
		// ranked prefix completed plus the stats line.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		cancel := stop
		if *timeout > 0 {
			tctx, tcancel := context.WithTimeout(ctx, *timeout)
			ctx = tctx
			cancel = func() { tcancel(); stop() }
		}
		s.Context = ctx
		if *progress {
			s.Progress = progressPrinter()
		}
		return s, cancel, nil
	}
}

// progressPrinter returns a Spec.Progress callback that repaints one
// stderr status line, rate-limited so terminals aren't flooded. Calls are
// already serialized by the exploration engine.
func progressPrinter() func(ivory.ExploreStats) {
	var last time.Time
	return func(s ivory.ExploreStats) {
		if s.Done != s.Jobs && time.Since(last) < 100*time.Millisecond {
			return
		}
		last = time.Now()
		fmt.Fprintf(os.Stderr, "\rexplore: %d/%d jobs, %d accepted, %d rejected",
			s.Done, s.Jobs, s.Accepted(), s.Rejected())
		if s.Done == s.Jobs {
			fmt.Fprintln(os.Stderr)
		}
	}
}

func cmdNodes() error {
	for _, n := range ivory.TechNodes() {
		node, err := ivory.LookupNode(n)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s Vdd=%.2fV  feature=%.0fnm\n", n, node.VddNominal, node.FeatureM*1e9)
	}
	return nil
}

func cmdTopology(args []string) error {
	fs := flag.NewFlagSet("topology", flag.ExitOnError)
	family := fs.String("family", "sp", "family: sp|ladder|dickson|fibonacci|doubler")
	p := fs.Int("p", 2, "input ratio term / stage count")
	q := fs.Int("q", 1, "output ratio term")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		top *ivory.Topology
		err error
	)
	switch *family {
	case "sp":
		top, err = ivory.SeriesParallel(*p, *q)
	case "ladder":
		top, err = ivory.Ladder(*p, *q)
	case "dickson":
		top, err = ivory.Dickson(*p)
	case "fibonacci":
		top, err = ivory.Fibonacci(*p)
	case "doubler":
		top, err = ivory.Doubler(*p)
	default:
		return fmt.Errorf("unknown family %q", *family)
	}
	if err != nil {
		return err
	}
	an, err := top.Analyze()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n  ideal ratio M = %.6f\n  caps: %d  Σ|a_c| = %.4f\n  switches: %d  Σ|a_r| = %.4f\n",
		an.Name, an.Ratio, an.NumCaps, an.SumAC, an.NumSwitches, an.SumAR)
	fmt.Printf("  a_c = %v\n  a_r = %v\n", round(an.CapMultipliers), round(an.SwitchMultipliers))
	fmt.Printf("  cap voltages (xVin) = %v\n  switch blocking (xVin) = %v\n",
		round(an.CapVoltages), round(an.SwitchBlockVoltages))
	return nil
}

func round(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*1e4+0.5)) / 1e4
	}
	return out
}

func cmdExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	get := specFlags(fs)
	top := fs.Int("top", 10, "number of candidates to print")
	jsonOut := fs.Bool("json", false, "emit the result as JSON (the ivoryd /v1/explore wire schema)")
	stream := fs.Bool("stream", false, "print each best-so-far improvement to stderr as the search finds it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, cancel, err := get()
	if err != nil {
		return err
	}
	defer cancel()
	if *stream {
		spec.OnImproved = func(c ivory.Candidate, st ivory.ExploreStats) {
			fmt.Fprintf(os.Stderr, "best: [%-4s] %-44s eff=%5.1f%%  area=%5.2fmm2  (evaluated %d, pruned %d)\n",
				c.Kind, c.Label, c.Metrics.Efficiency*100, c.Metrics.AreaDie*1e6,
				st.Evaluated(), st.Pruned())
		}
	}
	res, err := ivory.Explore(spec)
	if err != nil && res == nil {
		return err
	}
	if *jsonOut {
		return writeExploreJSON(os.Stdout, res, err, *top)
	}
	if err != nil {
		// Cancelled or timed out mid-run: Explore still returns the ranked
		// prefix that completed, so show it before exiting nonzero.
		fmt.Fprintf(os.Stderr, "ivory: exploration interrupted (%v); showing partial results\n", err)
	}
	fmt.Printf("explored %d feasible candidates (%d rejected), objective %v\n",
		len(res.Candidates), res.Rejected, spec.Objective)
	n := *top
	if n > len(res.Candidates) {
		n = len(res.Candidates)
	}
	for i := 0; i < n; i++ {
		c := res.Candidates[i]
		fmt.Printf("%2d. [%-4s] %-44s eff=%5.1f%%  ripple=%6.2fmV  fsw=%6.1fMHz  area=%5.2fmm2\n",
			i+1, c.Kind, c.Label, c.Metrics.Efficiency*100, c.Metrics.RippleVpp*1e3,
			c.Metrics.FSw/1e6, c.Metrics.AreaDie*1e6)
	}
	fmt.Printf("stats: %s\n", res.Stats.String())
	return err
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	get := specFlags(fs)
	counts := fs.String("counts", "1,2,4", "distribution counts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, cancel, err := get()
	if err != nil {
		return err
	}
	defer cancel()
	var cs []int
	for _, s := range strings.Split(*counts, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad count %q: %w", s, err)
		}
		cs = append(cs, v)
	}
	tbl, err := ivory.ExploreDistribution(spec, cs)
	if err != nil {
		return err
	}
	fmt.Print(tbl.Format())
	return nil
}

func cmdDynamic(args []string) error {
	fs := flag.NewFlagSet("dynamic", flag.ExitOnError)
	get := specFlags(fs)
	stepTo := fs.Float64("step-to", 0, "load step target (A); default 1.5x imax/2")
	csv := fs.String("csv", "", "write waveform CSV to this file")
	span := fs.Float64("span-us", 5, "simulated span (us)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, cancel, err := get()
	if err != nil {
		return err
	}
	defer cancel()
	res, err := ivory.Explore(spec)
	if err != nil {
		return err
	}
	cand, ok := res.BestOfKind(ivory.KindSC)
	if !ok {
		return fmt.Errorf("no feasible SC design for this spec")
	}
	i0 := spec.IMax / 2
	i1 := *stepTo
	if i1 == 0 {
		i1 = spec.IMax * 0.9
	}
	params, err := ivory.SCDynamicParams(cand.SC, spec.IMax)
	if err != nil {
		return err
	}
	sim := &ivory.SCSimulator{P: params}
	T := *span * 1e-6
	dt := 1 / (params.FClk * float64(maxInt(params.Interleave, 1)))
	tr, err := sim.Run(ivory.StepSignal(i0, i1, T/3), ivory.ConstantSignal(spec.VOut), T, dt)
	if err != nil {
		return err
	}
	st := tr.Stats()
	fmt.Printf("design: %s\nload step %.2f -> %.2f A at t=%.2f us over %.1f us\n",
		cand.Label, i0, i1, T/3*1e6, T*1e6)
	fmt.Printf("V_out: mean %.4f V, min %.4f V, max %.4f V, noise %.1f mVpp, avg fsw %.1f MHz\n",
		st.Mean, st.Min, st.Max, tr.PeakToPeak()*1e3, tr.AvgFSw/1e6)
	if *csv != "" {
		var b strings.Builder
		b.WriteString("t_s,v_out\n")
		for i := range tr.Times {
			fmt.Fprintf(&b, "%.9e,%.6f\n", tr.Times[i], tr.V[i])
		}
		if err := os.WriteFile(*csv, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("waveform written to %s (%d samples)\n", *csv, len(tr.Times))
	}
	return nil
}

func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	step := fs.String("h", "1n", "time step (SPICE value syntax)")
	span := fs.String("t", "10u", "simulated span")
	probe := fs.String("probe", "", "node to report (default: all node averages)")
	csv := fs.String("csv", "", "write waveforms CSV to this file")
	nodeFile := fs.String("tech", "", "load a custom technology node JSON before running (registers it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("sim needs exactly one netlist file")
	}
	if *nodeFile != "" {
		f, err := os.Open(*nodeFile)
		if err != nil {
			return err
		}
		n, err := ivory.LoadNodeJSON(f)
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := ivory.AddTechNode(n); err != nil {
			return err
		}
	}
	h, err := ivory.ParseSpiceValue(*step)
	if err != nil {
		return fmt.Errorf("bad -h: %w", err)
	}
	T, err := ivory.ParseSpiceValue(*span)
	if err != nil {
		return fmt.Errorf("bad -t: %w", err)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	// Read-only handle: a close failure cannot lose data.
	defer func() { _ = f.Close() }()
	ckt, err := ivory.ParseNetlist(f)
	if err != nil {
		return err
	}
	res, err := ckt.Tran(h, T)
	if err != nil {
		return err
	}
	fmt.Printf("%d steps, %d matrix factorizations\n", res.Steps, res.Refactorizations)
	if *probe != "" {
		w, ok := res.V[*probe]
		if !ok {
			return fmt.Errorf("no node %q in the netlist", *probe)
		}
		mn, mx := w[0], w[0]
		for _, v := range w {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		fmt.Printf("v(%s): avg %.6f V (trailing half), min %.6f, max %.6f\n",
			*probe, res.Avg(*probe, 0.5), mn, mx)
	} else {
		for _, node := range ckt.Nodes() {
			fmt.Printf("v(%-10s) avg %.6f V\n", node, res.Avg(node, 0.5))
		}
	}
	if *csv != "" {
		var b strings.Builder
		nodes := ckt.Nodes()
		b.WriteString("t_s")
		for _, n := range nodes {
			fmt.Fprintf(&b, ",%s", n)
		}
		b.WriteByte('\n')
		for k := range res.Times {
			fmt.Fprintf(&b, "%.9e", res.Times[k])
			for _, n := range nodes {
				fmt.Fprintf(&b, ",%.6f", res.V[n][k])
			}
			b.WriteByte('\n')
		}
		if err := os.WriteFile(*csv, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("waveforms written to %s\n", *csv)
	}
	return nil
}

func cmdNodeDump(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("node-dump needs exactly one node name")
	}
	n, err := ivory.LookupNode(args[0])
	if err != nil {
		return err
	}
	return n.WriteJSON(os.Stdout)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
