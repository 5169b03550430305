// Command bench is the repository benchmark: four seeded workloads that
// drive the exploration engine, the paper's experiment runners (transient
// case study, hybrid sweep and SPICE validation figures), and the ivoryd
// daemon (single node and cluster) end to end, check every output, and
// print end-to-end metrics (or, in a traced run, per-layer metrics) as one
// JSON line. Build and run it through bench/run.sh from the repository
// root; README.md describes the workloads, the metrics and the commands.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout, os.Stderr))
	}
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// workloadDef names a workload and records why it is in the benchmark.
type workloadDef struct {
	name string
	why  string
	// server workloads run against ivoryd processes started by the
	// harness; the others run in a child process of their own.
	server bool
}

var workloads = []workloadDef{
	{name: "explore-sweep", why: "Distinct seeded specs through core.Explore, one worker per CPU: static sizing, enumeration and ranking do the work; the server and simulators do none."},
	{name: "experiments", why: "Scoped Fig10Run and soc.Sweep calls dealt with the Fig4/6/7/8/9 runners: pds/dynamic stepping and the SPICE MNA kernel do the work; fidelity goldens are checked."},
	{name: "ivoryd-mix", why: "Open-loop Poisson requests to ivoryd: explore/hybrid/transient, 15% async, half from a Zipf pool of hot keys twice the LRU size: the server layer's work.", server: true},
	{name: "cluster-explore", why: "Closed-loop explorations through a coordinator and two 1-core ivoryd workers on the explore-sweep spec stream: the only workload running shard wire and merge.", server: true},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef is one reported metric; BENCHMARK.json lists the same names
// and units (bench_test.go keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by a traced run. A
// workload that never reaches a layer reports 0 for it.
var perLayer = []metricDef{
	{"core.setup_ms", "ms"},
	{"core.search_ms", "ms"},
	{"core.rank_ms", "ms"},
	{"core.track_ms", "ms"},
	{"core.eval_ms", "ms"},
	{"core.candidates_per_s", "1/s"},
	{"core.refs_per_op", "count"},
	{"core.batches_per_op", "count"},
	{"core.evaluated_per_op", "count"},
	{"core.pruned_per_op", "count"},
	{"core.accept_ratio", "ratio"},
	{"core.adaptive_winner_match_frac", "ratio"},
	{"sc.eval_ms", "ms"},
	{"buck.eval_ms", "ms"},
	{"ldo.eval_ms", "ms"},
	{"sc.accept_ratio", "ratio"},
	{"buck.accept_ratio", "ratio"},
	{"ldo.accept_ratio", "ratio"},
	{"topology.cache_hit_ratio", "ratio"},
	{"experiments.explore_wall_ms", "ms"},
	{"pds.sim_wall_ms", "ms"},
	{"pds.sim_ms_per_cell", "ms"},
	{"pds.cells_per_s", "1/s"},
	{"pds.trace_cache_hit_ratio", "ratio"},
	{"workload.trace_synth_ms", "ms"},
	{"soc.sweep_ms", "ms"},
	{"soc.assignments_per_s", "1/s"},
	{"soc.ranked_frac", "ratio"},
	{"soc.cells_infeasible_frac", "ratio"},
	{"spice.tran_ns_per_step", "ns"},
	{"dynamic.model_ns_per_step", "ns"},
	{"spice.measure_ms", "ms"},
	{"experiments.fig_ms.fig4", "ms"},
	{"experiments.fig_ms.fig6", "ms"},
	{"experiments.fig_ms.fig7", "ms"},
	{"experiments.fig_ms.fig8", "ms"},
	{"experiments.fig_ms.fig9", "ms"},
	{"experiments.speedup_x", "x"},
	{"experiments.model_err_max_pp", "pp"},
	{"server.hit_ms_p50", "ms"},
	{"server.miss_overhead_ms_p50", "ms"},
	{"server.wire_ms_mean", "ms"},
	{"server.resp_bytes_mean", "bytes"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.coalesced_frac", "ratio"},
	{"server.handler_ms_mean.explore", "ms"},
	{"server.handler_ms_mean.hybrid", "ms"},
	{"server.handler_ms_mean.transient", "ms"},
	{"server.async_queue_wait_ms_p50", "ms"},
	{"server.async_polls_mean", "count"},
	{"server.shed_frac", "ratio"},
	{"gen.lag_ms_p99", "ms"},
	{"gen.goodput_rps", "1/s"},
	{"server.shard_ms_p50", "ms"},
	{"server.shard_ms_p99", "ms"},
	{"server.shards_per_op", "count"},
	{"server.shard_retries", "count"},
	{"server.worker_handler_ms_mean", "ms"},
	{"server.coord_eval_ms_mean", "ms"},
	{"server.coord_overhead_ms_mean", "ms"},
	{"server.cluster_vs_local_x", "x"},
	{"trace.overhead_frac", "ratio"},
}

// config is one workload run. It travels to batch children as JSON.
type config struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Limit caps the timed ops of each phase (0: bounded by Seconds only);
	// the tests use it to run every workload in well under a second.
	Limit int `json:"limit,omitempty"`
	// SetupReps is how many times set-up runs; setup_s is their median. A
	// batch workload runs one child process per set-up, each measuring an
	// equal slice of Seconds; a server workload measures on its last fleet.
	SetupReps int `json:"setup_reps"`
	// Start is the first op index a batch child runs.
	Start  int    `json:"start,omitempty"`
	Spans  string `json:"spans,omitempty"`
	Ivoryd string `json:"ivoryd,omitempty"`
	Out    string `json:"out,omitempty"`
}

// defaultSetupReps is how many set-ups an untraced run times.
const defaultSetupReps = 7

// outcome is everything one workload run measured.
type outcome struct {
	Digest   string             `json:"digest"`
	Untraced phase              `json:"untraced"`
	Traced   *phase             `json:"traced,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	// End is the op index after the last one a batch child ran.
	End    int       `json:"end"`
	SetupS []float64 `json:"-"`
	RSSMB  float64   `json:"rss_mb"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finite maps NaN and ±Inf (a layer with no samples) to 0 so the result
// stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (o *outcome) result(trace bool) result {
	r := result{Attempted: o.Untraced.Attempted, Failed: o.Untraced.Failed, Metrics: map[string]metric{}}
	if o.Traced != nil {
		r.Attempted += o.Traced.Attempted
		r.Failed += o.Traced.Failed
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if !trace {
		vals := map[string]float64{
			"setup_s":        median(o.SetupS),
			"ops_per_s":      o.Untraced.OpsPerS,
			"latency_p50_ms": o.Untraced.P50MS,
			"latency_p99_ms": o.Untraced.P99MS,
			"peak_rss_mb":    o.RSSMB,
		}
		for _, d := range endToEnd {
			r.Metrics[d.name] = metric{finite(vals[d.name]), d.unit}
		}
		return r
	}
	layers := map[string]float64{}
	for k, v := range o.Layers {
		layers[k] = v
	}
	if o.Traced != nil {
		layers["trace.overhead_frac"] = 1 - div(o.Traced.OpsPerS, o.Untraced.OpsPerS)
	}
	for _, d := range perLayer {
		r.Metrics[d.name] = metric{finite(layers[d.name]), d.unit}
	}
	return r
}

// runHeader precedes each result line so `compare` can tell runs apart.
type runHeader struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Digest   string `json:"digest"`
	Samples  int    `json:"samples"`
}

func parseFlags(args []string, stderr io.Writer) (config, []string, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{SetupReps: defaultSetupReps}
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run; empty runs all of them in turn")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&cfg.Seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	fs.StringVar(&cfg.Spans, "spans", "", "span file of a traced single-workload run (default <out>/spans-<workload>-<seed>.jsonl)")
	fs.StringVar(&cfg.Ivoryd, "ivoryd", "", "ivoryd binary the server workloads start (default <out>/ivoryd)")
	fs.StringVar(&cfg.Out, "out", ".bench_build", "directory for run artifacts")
	if err := fs.Parse(args); err != nil {
		return cfg, nil, err
	}
	if trace != 0 && trace != 1 {
		return cfg, nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if !(cfg.Seconds > 0) {
		return cfg, nil, fmt.Errorf("-seconds must be positive")
	}
	if cfg.Workload != "" {
		if _, ok := lookupWorkload(cfg.Workload); !ok {
			return cfg, nil, fmt.Errorf("unknown workload %q", cfg.Workload)
		}
	}
	cfg.Trace = trace == 1
	if cfg.Trace {
		cfg.SetupReps = 1
	}
	if cfg.Ivoryd == "" {
		cfg.Ivoryd = filepath.Join(cfg.Out, "ivoryd")
	}
	return cfg, fs.Args(), nil
}

func realMain(args []string, stdout, stderr io.Writer) int {
	cfg, rest, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			logf(stderr, "bench: %v", err)
		}
		return 2
	}
	if len(rest) > 0 {
		switch rest[0] {
		case "compare":
			return compareMain(rest[1:], stdout, stderr)
		case "calibrate":
			return calibrateMain(cfg, stdout, stderr)
		}
		logf(stderr, "bench: unknown command %q (want compare or calibrate)", rest[0])
		return 2
	}
	names := []string{cfg.Workload}
	if cfg.Workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	code := 0
	for _, name := range names {
		c := cfg
		c.Workload = name
		if c.Trace && (c.Spans == "" || len(names) > 1) {
			if err := os.MkdirAll(c.Out, 0o755); err != nil {
				logf(stderr, "bench: %v", err)
				return 1
			}
			c.Spans = filepath.Join(c.Out, fmt.Sprintf("spans-%s-%d.jsonl", name, c.Seed))
		}
		start := time.Now()
		o, err := runWorkload(c, stderr)
		if err != nil {
			logf(stderr, "bench: %s: %v", name, err)
			return 1
		}
		res := o.result(c.Trace)
		logf(stderr, "bench: %s seed %d: %d ops, %d failed, %.1fs wall",
			name, c.Seed, res.Attempted, res.Failed, time.Since(start).Seconds())
		for _, e := range o.errors() {
			logf(stderr, "  check failed: %v", e)
		}
		if err := printResult(stdout, c, o, res); err != nil {
			logf(stderr, "bench: %v", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// logf writes one diagnostic line to w; diagnostics are best effort.
func logf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format+"\n", args...)
}

func printResult(w io.Writer, cfg config, o *outcome, res result) error {
	h := runHeader{Workload: cfg.Workload, Seed: cfg.Seed, Digest: o.Digest, Samples: o.Untraced.Samples}
	if cfg.Trace {
		h.Trace = 1
	}
	hb, err := json.Marshal(map[string]runHeader{"bench_run": h})
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", hb, rb)
	return err
}

func (o *outcome) errors() []string {
	errs := append([]string(nil), o.Untraced.Errors...)
	if o.Traced != nil {
		errs = append(errs, o.Traced.Errors...)
	}
	return errs
}

func runWorkload(cfg config, stderr io.Writer) (*outcome, error) {
	def, ok := lookupWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if def.server {
		return runServerWorkload(cfg, stderr)
	}
	return runBatchWorkload(cfg, stderr)
}
