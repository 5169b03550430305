package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"ivory/internal/server"
	"ivory/internal/workload"
)

// crossEvery is the stride of the expensive cross-checks (a second,
// independent computation of the same answer); every op gets the cheap
// invariants.
const crossEvery = 50

// phase is one measured stretch of a run: closed-loop batch ops, or the
// open-loop request stream of ivoryd-mix.
type phase struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// TimedS is the length of the timed axis: the sum of op latencies for
	// a closed loop, the span of due times for the open loop.
	TimedS float64 `json:"timed_s"`
	// LatMS holds the latency of every successful op, and AtS where on the
	// timed axis it started (or was due).
	LatMS []float64 `json:"lat_ms,omitempty"`
	AtS   []float64 `json:"at_s,omitempty"`

	// Filled by summarize.
	Samples int     `json:"-"`
	OpsPerS float64 `json:"-"`
	P50MS   float64 `json:"-"`
	P99MS   float64 `json:"-"`
}

// ok records a successful op.
func (p *phase) ok(atS, latMS float64) {
	p.AtS = append(p.AtS, atS)
	p.LatMS = append(p.LatMS, latMS)
}

// maxErrors bounds the check failures a phase keeps for the report.
const maxErrors = 5

func (p *phase) fail(err error) {
	p.Failed++
	if len(p.Errors) < maxErrors {
		p.Errors = append(p.Errors, err.Error())
	}
}

// add folds another slice of the same workload into p.
func (p *phase) add(q phase) {
	p.Attempted += q.Attempted
	p.Failed += q.Failed
	for _, e := range q.Errors {
		if len(p.Errors) < maxErrors {
			p.Errors = append(p.Errors, e)
		}
	}
	for i, at := range q.AtS {
		p.ok(p.TimedS+at, q.LatMS[i])
	}
	p.TimedS += q.TimedS
}

// windows is how many equal stretches of the timed axis summarize cuts a
// phase into. The reported rate and percentiles pool all but the slowest
// quarter of them, ranked by median latency, so contention from outside
// the program that slows up to a quarter of the run leaves the figures
// where they were. Below minWindowed samples the whole phase is pooled.
const (
	windows     = 8
	minWindowed = 20 * windows
)

// summarize fills the rate and percentiles from the latency samples of the
// kept windows.
func (p *phase) summarize() {
	p.Samples = len(p.LatMS)
	lat, span := p.keptWindows()
	p.OpsPerS = div(float64(len(lat)), span)
	p.P50MS = percentile(lat, 50)
	p.P99MS = percentile(lat, 99)
}

// keptWindows returns the latencies of every window but the slowest
// quarter, and the timed seconds those windows cover.
func (p *phase) keptWindows() ([]float64, float64) {
	if p.Samples < minWindowed || !(p.TimedS > 0) {
		return p.LatMS, p.TimedS
	}
	width := p.TimedS / windows
	var byWindow [windows][]float64
	for i, at := range p.AtS {
		k := min(int(at/width), windows-1)
		byWindow[k] = append(byWindow[k], p.LatMS[i])
	}
	order := make([]int, windows)
	med := make([]float64, windows)
	for k := range order {
		order[k] = k
		med[k] = math.Inf(1) // a window with no successes ranks slowest
		if len(byWindow[k]) > 0 {
			med[k] = percentile(byWindow[k], 50)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return med[order[i]] < med[order[j]] })
	var lat []float64
	kept := order[:windows-windows/4]
	for _, k := range kept {
		lat = append(lat, byWindow[k]...)
	}
	return lat, float64(len(kept)) * width
}

// closedOps is what a closed-loop phase runs.
type closedOps interface {
	// do runs op i (indices wrap around the generated inputs); tr is nil
	// in untraced phases.
	do(i int, tr *tracer) (any, error)
	// check validates op i's output, untimed; traced is set in the traced
	// phase, where a check may also time a layer on its own.
	check(i int, out any, traced bool) error
}

// batch is a closed-loop workload run in-process by a child.
type batch interface {
	closedOps
	// digest identifies the generated inputs.
	digest() string
	// warmUp runs one untimed op of every op type.
	warmUp() error
	// layers reports the per-layer metrics of everything run so far.
	layers() map[string]float64
}

func newBatch(name string, seed int64) (batch, error) {
	switch name {
	case "explore-sweep":
		return newExploreSweep(seed)
	case "experiments":
		return newExperiments(seed)
	}
	return nil, fmt.Errorf("%q is not a batch workload", name)
}

// runClosed runs ops with one caller, back to back, until the timed wall —
// the sum of op latencies, which leaves the output checks out — reaches
// seconds (or limit ops ran). cursor carries the op index across phases so
// every phase sees fresh inputs.
func runClosed(b closedOps, cursor *int, seconds float64, limit int, tr *tracer) phase {
	var p phase
	for p.TimedS < seconds && (limit == 0 || p.Attempted < limit) {
		i := *cursor
		*cursor++
		at := p.TimedS
		t0 := time.Now()
		out, err := b.do(i, tr)
		d := time.Since(t0)
		p.Attempted++
		p.TimedS += d.Seconds()
		if err == nil {
			err = b.check(i, out, tr != nil)
		}
		if err != nil {
			p.fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		p.ok(at, millis(d))
	}
	p.summarize()
	return p
}

// runBatchPhases runs the untraced phase from op cfg.Start and, for a
// traced run, a traced phase of the same length after it, then writes the
// spans.
func runBatchPhases(b batch, cfg config, stderr io.Writer) (*outcome, error) {
	o := &outcome{Digest: b.digest()}
	secs := cfg.Seconds
	if cfg.Trace {
		secs /= 2
	}
	cursor := cfg.Start
	o.Untraced = runClosed(b, &cursor, secs, cfg.Limit, nil)
	if cfg.Trace {
		tr := newTracer()
		p := runClosed(b, &cursor, secs, cfg.Limit, tr)
		o.Traced = &p
		o.Layers = b.layers()
		spans := tr.snapshot()
		printSelfTimes(stderr, spans)
		if err := writeSpans(cfg.Spans, spans); err != nil {
			return nil, err
		}
	}
	o.End = cursor
	return o, nil
}

// seedFor derives the RNG seed of one input stream from the run seed and
// the stream's name, so workloads draw independent inputs from one seed
// unless they share a stream on purpose.
func seedFor(seed int64, stream string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream))
	return seed ^ int64(h.Sum64())
}

// dealt returns n items made of seeded shuffles of block laid end to end,
// so every whole block of the result holds block's exact shares. A mix
// dealt this way, rather than drawn item by item, has the same make-up in
// every stretch of every run, whatever the seed.
func dealt[T any](rng *rand.Rand, block []T, n int) []T {
	out := make([]T, 0, n+len(block))
	for len(out) < n {
		b := append([]T(nil), block...)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		out = append(out, b...)
	}
	return out[:n]
}

// shares is a block of n flags, k of them set.
func shares(k, n int) []bool {
	b := make([]bool, n)
	for i := range b[:k] {
		b[i] = true
	}
	return b
}

// digestOf hashes the JSON form of generated inputs.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("digest: %v", err)) // inputs are plain data
	}
	h := fnv.New64a()
	_, _ = h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// The spec grid every exploration workload samples. The area budget grows
// with the load current (0.5 mm² + 1–2 mm² per amp): a sweep of the grid's
// corners and a 13-point VOut ladder found a feasible design for every
// point, where a budget independent of current leaves high-current corners
// with none.
var (
	specNodes = []string{"65nm", "45nm", "32nm", "22nm"}
	specVIns  = []float64{1.2, 1.5, 1.8, 2.5, 3.3}
)

// adaptiveShare is the fraction of explorations using the adaptive search.
const adaptiveShare = 0.2

func drawSpec(rng *rand.Rand) server.SpecDTO {
	d := server.SpecDTO{
		Node:  specNodes[rng.Intn(len(specNodes))],
		VInV:  specVIns[rng.Intn(len(specVIns))],
		VOutV: 0.5 + 0.6*rng.Float64(),
		IMaxA: 0.2 + 4*rng.Float64(),
	}
	d.AreaMM2 = 0.5 + d.IMaxA*(1+rng.Float64())
	if rng.Float64() < adaptiveShare {
		d.Search = "adaptive"
	}
	return d
}

// The warm-up inputs are fixed, not drawn from the seed, so set-up time
// measures the same work for every seed: the smoke-test spec, a one-cell
// scoped Fig10 run, and a two-rail hybrid sweep.
var (
	warmSpec      = server.SpecDTO{Node: "45nm", VInV: 1.8, VOutV: 0.9, IMaxA: 1, AreaMM2: 2}
	warmTransient = server.TransientRequest{TUS: 5, DtNS: 2, Benchmarks: []string{"CFD"}, Configs: []int{1}}
	warmHybrid    = server.HybridRequest{Rails: []string{"vrm", "ivr"}, AreaBudgetMM2: 25}
)

// warmSpecs is warmSpec under both search strategies.
func warmSpecs() []server.SpecDTO {
	adaptive := warmSpec
	adaptive.Search = "adaptive"
	return []server.SpecDTO{warmSpec, adaptive}
}

// exploreSpecs is the spec stream explore-sweep and cluster-explore share.
func exploreSpecs(seed int64, n int) []server.SpecDTO {
	rng := rand.New(rand.NewSource(seedFor(seed, "explore-sweep")))
	out := make([]server.SpecDTO, n)
	for i := range out {
		out[i] = drawSpec(rng)
	}
	return out
}

// transientShape bounds a drawn scoped Fig10 run: up to maxBenchmarks
// benchmarks and a simulated span from spansUS.
type transientShape struct {
	maxBenchmarks int
	spansUS       []float64
}

var (
	// sweepShape is the experiments workload's: 1–4 benchmarks, T ∈ {5,10,20} µs.
	// With dt ∈ {1,2} ns that is 7 × 6 = 42 distinct trace keys, and the
	// default hybrid floorplan adds 5, so the 64-entry pds trace memo holds
	// them all.
	sweepShape = transientShape{4, []float64{5, 10, 20}}
	// mixShape keeps ivoryd-mix's transient requests under ~20 ms of
	// compute on one engine worker: a handful of 50 ms sweeps per run made
	// the open loop's p99 depend on how many of them the seed drew.
	mixShape = transientShape{2, []float64{5, 10}}
)

// drawTransient samples a scoped Fig10 run: benchmarks and span within
// shape, a non-empty subset of the case-study configurations, and
// dt ∈ {1,2} ns.
func drawTransient(rng *rand.Rand, shape transientShape) server.TransientRequest {
	names := workload.Names()
	var req server.TransientRequest
	for _, k := range rng.Perm(len(names))[:1+rng.Intn(shape.maxBenchmarks)] {
		req.Benchmarks = append(req.Benchmarks, names[k])
	}
	for _, n := range []int{0, 1, 2, 4} {
		if rng.Intn(2) == 0 {
			req.Configs = append(req.Configs, n)
		}
	}
	if len(req.Configs) == 0 {
		req.Configs = []int{[]int{0, 1, 2, 4}[rng.Intn(4)]}
	}
	req.TUS = shape.spansUS[rng.Intn(len(shape.spansUS))]
	req.DtNS = []float64{1, 2}[rng.Intn(2)]
	return req
}

// drawHybrid samples a hybrid sweep of the default floorplan: a rail menu
// that always offers the off-chip VRM (it needs no area, so some
// assignment is always feasible) plus a random subset of the on-chip
// rails, listed in random order, under a 5–45 mm² budget.
func drawHybrid(rng *rand.Rand) server.HybridRequest {
	req := server.HybridRequest{Rails: []string{"vrm"}, AreaBudgetMM2: 5 + 40*rng.Float64()}
	for _, r := range []string{"ivr", "ivr2", "ivr4", "ldo"} {
		if rng.Intn(2) == 0 {
			req.Rails = append(req.Rails, r)
		}
	}
	rng.Shuffle(len(req.Rails), func(i, j int) { req.Rails[i], req.Rails[j] = req.Rails[j], req.Rails[i] })
	return req
}
