// Package core is the Ivory framework proper: it ties the technology
// database, topology analysis, converter static models, and dynamic models
// together behind the four modules of the paper's Fig. 2 — system
// parameters, static design trade-offs, dynamic feedback response, and
// design optimization.
//
// The entry point is Explore: given the user's high-level specification
// (input/output voltage, maximum load current, area budget, optimization
// objective — the paper's Table 1 inputs), it enumerates SC conversion
// ratios and capacitor flavours, buck frequency/phase plans, and LDO
// configurations, sizes each candidate within the area budget, evaluates
// it with the static models, and returns the ranked candidates.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"ivory/internal/buck"
	"ivory/internal/ivr"
	"ivory/internal/ldo"
	"ivory/internal/sc"
	"ivory/internal/tech"
	"ivory/internal/topology"
)

// Objective selects what the design optimizer maximizes/minimizes.
type Objective int

const (
	// MaxEfficiency maximizes conversion efficiency at full load (the
	// paper's default, minimizing power delivery overhead).
	MaxEfficiency Objective = iota
	// MinArea minimizes die area among candidates above the efficiency
	// floor.
	MinArea
	// MinNoise minimizes static output ripple.
	MinNoise
)

func (o Objective) String() string {
	switch o {
	case MaxEfficiency:
		return "max-efficiency"
	case MinArea:
		return "min-area"
	case MinNoise:
		return "min-noise"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ParseObjective maps an objective name to its constant. Both the canonical
// String form ("max-efficiency") and the CLI/wire short form ("eff") are
// accepted, case-insensitively.
func ParseObjective(s string) (Objective, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "eff", "efficiency", "max-efficiency":
		return MaxEfficiency, nil
	case "area", "min-area":
		return MinArea, nil
	case "noise", "min-noise":
		return MinNoise, nil
	default:
		return MaxEfficiency, fmt.Errorf("core: unknown objective %q (want eff|area|noise)", s)
	}
}

// Kind identifies the converter family of a candidate.
type Kind int

const (
	// KindSC marks switched-capacitor candidates.
	KindSC Kind = iota
	// KindBuck marks buck candidates.
	KindBuck
	// KindLDO marks linear-regulator candidates.
	KindLDO
)

func (k Kind) String() string {
	switch k {
	case KindSC:
		return "SC"
	case KindBuck:
		return "buck"
	case KindLDO:
		return "LDO"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps a converter-family name ("sc", "buck", "ldo",
// case-insensitive) to its constant.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sc":
		return KindSC, nil
	case "buck":
		return KindBuck, nil
	case "ldo":
		return KindLDO, nil
	default:
		return KindSC, fmt.Errorf("core: unknown converter kind %q (want SC|buck|LDO)", s)
	}
}

// Spec is the user's high-level input (paper Table 1).
type Spec struct {
	// NodeName selects the technology node (e.g. "45nm").
	NodeName string
	// VIn and VOut are the converter input voltage and regulation target.
	VIn, VOut float64
	// IMax is the maximum load current the converter must sustain (A).
	IMax float64
	// AreaMax is the die-area budget (m²).
	AreaMax float64
	// RippleMax is the static ripple target (V); zero selects 1% of VOut.
	RippleMax float64
	// Objective selects the optimization target (default MaxEfficiency).
	Objective Objective
	// EfficiencyFloor prunes candidates below this efficiency for the
	// MinArea/MinNoise objectives (default 0.25).
	EfficiencyFloor float64
	// Kinds restricts the families explored; empty means all three.
	Kinds []Kind
	// FSwMax bounds switching frequency (default 1 GHz).
	FSwMax float64
	// Search selects the exploration strategy. SearchExhaustive (the zero
	// value) sweeps the full configuration lattice — the paper's flow and
	// the reference the adaptive mode is tested against. SearchAdaptive
	// prunes with per-family analytic efficiency bounds and successive
	// halving (see search.go) and typically evaluates an order of
	// magnitude fewer configurations.
	Search SearchStrategy
	// Workers bounds the exploration worker pool: 0 uses one worker per
	// CPU, 1 evaluates the space serially (the reference path). The ranked
	// output is bit-identical for every worker count — candidates are
	// merged in enumeration order before ranking.
	Workers int
	// Context, when non-nil, cancels a running exploration: no new
	// evaluation jobs are dispatched, in-flight jobs drain, and Explore
	// returns ctx.Err() alongside the partial ranked result (see Explore).
	// nil selects context.Background() — never cancelled, exactly the old
	// behavior.
	Context context.Context
	// Progress, when non-nil, receives a telemetry snapshot after every
	// completed evaluation job. Calls are serialized (never concurrent)
	// but arrive on worker goroutines; keep the callback fast, and do not
	// start another exploration from inside it. Progress must not mutate
	// shared state the jobs read — the determinism contract assumes the
	// callback only observes.
	Progress func(Stats)
	// OnImproved, when non-nil, receives each candidate that improves on
	// the best-so-far under the spec's objective, together with the
	// telemetry snapshot at that moment. Calls are serialized like
	// Progress and arrive on worker goroutines; the sequence of improving
	// candidates depends on job completion order (it is monotone — every
	// emitted candidate beats the previous one — but not deterministic
	// under parallelism). The final emitted candidate equals Result.Best
	// on an uncancelled run.
	OnImproved func(Candidate, Stats)
}

func (s *Spec) defaults() error {
	if s.NodeName == "" {
		return fmt.Errorf("core: Spec.NodeName is required")
	}
	// NaN compares false against everything, so the positivity checks
	// below would silently wave NaNs through; reject them explicitly.
	for _, v := range []float64{s.VIn, s.VOut, s.IMax, s.AreaMax, s.RippleMax, s.FSwMax, s.EfficiencyFloor} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: Spec contains a NaN/Inf field")
		}
	}
	if s.VIn <= 0 || s.VOut <= 0 || s.VOut >= s.VIn {
		return fmt.Errorf("core: need 0 < VOut < VIn (got %g, %g)", s.VOut, s.VIn)
	}
	if s.IMax <= 0 {
		return fmt.Errorf("core: IMax must be positive")
	}
	if s.AreaMax <= 0 {
		return fmt.Errorf("core: AreaMax must be positive")
	}
	if s.RippleMax == 0 {
		s.RippleMax = 0.01 * s.VOut
	}
	if s.EfficiencyFloor == 0 {
		s.EfficiencyFloor = 0.25
	}
	if s.FSwMax == 0 {
		s.FSwMax = 1e9
	}
	if len(s.Kinds) == 0 {
		s.Kinds = []Kind{KindSC, KindBuck, KindLDO}
	} else {
		// Canonical family list: enumeration order, no repeats, on a copy so
		// the caller's slice is untouched. ["SC","SC"] explores exactly what
		// ["SC"] does, and listing order never reaches the result echo.
		kinds := slices.Clone(s.Kinds)
		slices.Sort(kinds)
		s.Kinds = slices.Compact(kinds)
	}
	// Per-kind accounting indexes arrays by Kind, so unknown kinds are an
	// input error now rather than a silent no-op (the old nested switch
	// skipped them without a trace).
	for _, k := range s.Kinds {
		if k < 0 || int(k) >= numKinds {
			return fmt.Errorf("core: Spec.Kinds contains unknown kind %d", int(k))
		}
	}
	if s.Workers < 0 {
		return fmt.Errorf("core: Spec.Workers must be >= 0 (got %d)", s.Workers)
	}
	if s.Search < SearchExhaustive || s.Search > SearchAdaptive {
		return fmt.Errorf("core: unknown Spec.Search %d", int(s.Search))
	}
	return nil
}

// Normalized returns a copy of the spec with every default applied — the
// exact spec Explore evaluates and echoes on Result.Spec — or the
// validation error Explore would return for it. Serving layers key caches
// on the normalized spec so requests that differ only in elided defaults
// (RippleMax 0 vs the derived 1% of VOut, an empty vs explicit Kinds list)
// or in Kinds order and repeats coalesce onto one computation.
func (s Spec) Normalized() (Spec, error) {
	if err := (&s).defaults(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Candidate is one evaluated design point.
type Candidate struct {
	// Kind is the converter family.
	Kind Kind
	// Label describes the configuration (ratio, cap kind, phases...).
	Label string
	// Metrics is the static evaluation at IMax.
	Metrics ivr.Metrics
	// SC, Buck, LDO holds the underlying design (exactly one non-nil).
	SC   *sc.Design
	Buck *buck.Design
	LDO  *ldo.Design
}

// Result is the outcome of a design-space exploration.
type Result struct {
	// Spec echoes the (defaulted) input.
	Spec Spec
	// Best is the winning candidate under the objective.
	Best Candidate
	// Candidates holds every feasible design, ranked best-first.
	Candidates []Candidate
	// Rejected counts configurations that failed sizing or feasibility.
	Rejected int
	// Stats is the run's telemetry record (per-kind counts, cache
	// hit/miss, wall time, throughput; Cancelled on an interrupted run).
	Stats Stats
}

// shard accumulates the outcome of one independent slice of the
// configuration space. Every worker writes only to its own shard; shards
// merge in enumeration order, so the assembled candidate list is identical
// to a serial sweep regardless of how the work was scheduled.
type shard struct {
	candidates []Candidate
	rejected   int
}

// Explore runs the design optimization module over the full space: the
// candidate configurations (kind x topology x cap kind x cap share x
// allocation policy x phase count) are enumerated into a flat work list,
// fanned out over a Spec.Workers-bounded pool, and merged deterministically
// before ranking.
//
// Run control (Spec.Context): when the context is cancelled mid-run, no
// new jobs are dispatched, in-flight jobs drain, and Explore returns the
// context's error TOGETHER with a non-nil partial Result — the candidates
// of every completed job, merged in enumeration order and ranked, with
// Stats.Cancelled set. Callers that only check err keep the old behavior;
// callers wanting partial sweeps read the Result when err is a context
// error. A panic inside an evaluation job is re-raised on the caller's
// goroutine as a *parallel.PanicError carrying the job index.
func Explore(spec Spec) (*Result, error) {
	return ExploreWith(spec, nil)
}

// ExploreWith is Explore with the evaluation step pluggable: every batch of
// enumerated configurations is handed to eval instead of the in-process
// pool, so a serving layer can fan the same deterministic work list out to
// remote replicas (see internal/server's cluster mode). A nil eval selects
// the local pool — ExploreWith(spec, nil) is exactly Explore(spec).
//
// The merge contract is unchanged: outcomes are merged positionally in
// enumeration/stage order before any ranking or pruning decision, so the
// ranked result is bit-identical for any evaluator that returns the same
// per-ref outcomes — local, clustered, or mixed.
func ExploreWith(spec Spec, eval Evaluator) (*Result, error) {
	if err := spec.defaults(); err != nil {
		return nil, err
	}
	node, err := tech.Lookup(spec.NodeName)
	if err != nil {
		return nil, err
	}
	ec := newEvalContext(spec, node)
	if eval == nil {
		eval = ec.localEvaluator(spec.Workers)
	}
	res := &Result{Spec: spec}
	tr := newTracker(spec)
	var ferr error
	if spec.Search == SearchAdaptive {
		ferr = exploreAdaptive(spec, ec, res, tr, eval)
	} else {
		ferr = exploreExhaustive(spec, ec, res, tr, eval)
	}
	res.Stats = tr.finalize(ferr != nil)
	if ferr != nil {
		if len(res.Candidates) > 0 {
			res.rank()
			res.Best = res.Candidates[0]
		}
		return res, ferr
	}
	if len(res.Candidates) == 0 {
		return nil, ivr.Infeasible("design space",
			"no feasible converter for %gV->%gV @%gA within %.2g mm2",
			spec.VIn, spec.VOut, spec.IMax, spec.AreaMax*1e6)
	}
	res.rank()
	res.Best = res.Candidates[0]
	return res, nil
}

// exploreExhaustive sweeps the full configuration lattice — the paper's
// flow and the reference path the adaptive strategy is tested against.
func exploreExhaustive(spec Spec, ec *evalContext, res *Result, tr *tracker, eval Evaluator) error {
	// Enumeration resolves the cheap shared context (topology analyses,
	// device lookups) up front; failures there reject exactly as the
	// nested serial loops did. The per-configuration sizing and evaluation
	// — the dominant cost — lands in the ref list.
	refs, pre := ec.enumerate()
	for k := Kind(0); int(k) < numKinds; k++ {
		// Enumeration-time rejections belong to the family being expanded.
		tr.enumRejected(k, pre[k])
		res.Rejected += pre[k]
	}
	tr.addJobs(len(refs))
	outs, ferr := eval(specContext(spec), refs, func(i int, out *RefOutcome) {
		tr.jobDone(refs[i].Kind, out.Candidates, out.Rejected)
	})
	// Merge whatever completed: on an uncancelled run that is every ref;
	// on a cancelled one, the never-started slots are simply empty, so
	// the merge still walks enumeration order with no gaps or tears.
	for i := range outs {
		res.Candidates = append(res.Candidates, outs[i].Candidates...)
		res.Rejected += outs[i].Rejected
	}
	return ferr
}

// scRatios enumerates the SC conversion ratios worth trying for the spec:
// the ideal output must exceed the target with at least 3% regulation
// headroom, and by no more than ~60% (beyond that, efficiency is hopeless).
func scRatios(spec Spec) []*topology.Topology {
	var out []*topology.Topology
	add := func(t *topology.Topology, err error) {
		if err == nil {
			out = append(out, t)
		}
	}
	type ratio struct{ p, q int }
	seen := map[float64]bool{}
	for _, r := range []ratio{{2, 1}, {3, 1}, {4, 1}, {5, 1}, {3, 2}, {4, 3}, {5, 4}, {5, 2}, {5, 3}, {7, 2}, {7, 3}, {8, 3}} {
		m := float64(r.q) / float64(r.p)
		ideal := m * spec.VIn
		if ideal < spec.VOut*1.03 || ideal > spec.VOut*1.6 {
			continue
		}
		if seen[m] {
			continue
		}
		seen[m] = true
		if r.q == 1 || r.q == r.p-1 {
			add(topology.SeriesParallel(r.p, r.q))
		} else {
			add(topology.Ladder(r.p, r.q))
		}
	}
	return out
}

// The evaluation lattices, shared by both search strategies: the
// exhaustive path sweeps them fully, the adaptive path probes them
// coarsely and bisects around the incumbent (search.go). Densities are
// picked for design resolution — ~1.2% steps on the SC capacitor share,
// 29 log-spaced points across the buck frequency decade — at which the
// exhaustive sweep is the high-fidelity reference and the adaptive mode
// earns its keep.
var (
	// scCapKinds is the capacitor-flavour axis of the SC space.
	scCapKinds = []tech.CapacitorKind{tech.DeepTrench, tech.MOSCap, tech.MIMCap}
	// scCapShares is the capacitor area-share lattice.
	scCapShares = linspace(0.50, 0.97, 41)
	// buckFreqs is the buck switching-frequency lattice (Hz).
	buckFreqs = geomspace(30e6, 400e6, 29)
	// ldoSampleFreqs is the digital-LDO sample-frequency lattice (Hz).
	ldoSampleFreqs = []float64{30e6, 60e6, 100e6, 200e6, 300e6}
)

// linspace returns n evenly spaced points over [lo, hi], endpoints exact.
func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// geomspace returns n logarithmically spaced points over [lo, hi],
// endpoints exact.
func geomspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	r := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= r
	}
	out[n-1] = hi
	return out
}

// evalSCPolicy sizes and evaluates one (topology, cap kind, cap share,
// allocation policy) configuration — the unit the adaptive search counts
// and prunes individually. Both conductance-allocation policies are
// candidates: the cost-aware split wins when gate drive dominates, the
// plain a_r split when the FSL budget is tight (it keeps C·f_sw — and
// bottom-plate loss — lower). Sizing runs against the topology's switch
// plan, built once per exploration.
func (ec *evalContext) evalSCPolicy(out *shard, ref ConfigRef) {
	spec, an, plan := ec.spec, ec.topos[ref.Topo], ec.plans[ref.Topo]
	capKind, capOpt := scCapKinds[ref.Cap], ec.capOpts[ref.Cap]
	capShare, usable := scCapShares[ref.Axis], ec.usable
	if plan == nil {
		out.rejected++
		return
	}
	cTot := capOpt.DensityFPerM2 * usable * capShare * 0.9 // 10% to decap
	cDecap := capOpt.DensityFPerM2 * usable * capShare * 0.1
	gTot, err := plan.GTotalForArea(usable * (1 - capShare))
	if err != nil {
		out.rejected++
		return
	}
	cfg := sc.Config{
		Analysis: an, Node: ec.node, CapKind: capKind,
		VIn: spec.VIn, VOut: spec.VOut,
		CTotal: cTot, GTotal: gTot, CDecap: cDecap,
		FSwMax:                  spec.FSwMax,
		UniformSwitchAllocation: ref.Pol == PolUniform,
	}
	d, err := plan.New(cfg)
	if err != nil {
		out.rejected++
		return
	}
	m, err := d.Evaluate(spec.IMax)
	if err != nil {
		out.rejected++
		return
	}
	// Interleave to meet the ripple target, then re-evaluate. A design
	// whose interleaved re-evaluation fails is over the ripple target
	// with no way to fix it — reject it rather than keep the
	// single-phase version that already missed the spec.
	if m.RippleVpp > spec.RippleMax {
		n := int(math.Ceil(m.RippleVpp / spec.RippleMax))
		if n > 64 {
			n = 64
		}
		d2, err := d.WithInterleave(n)
		if err != nil {
			out.rejected++
			return
		}
		m2, err := d2.Evaluate(spec.IMax)
		if err != nil {
			out.rejected++
			return
		}
		d, m = d2, m2
	}
	if m.AreaDie > spec.AreaMax {
		out.rejected++
		return
	}
	out.candidates = append(out.candidates, Candidate{
		Kind:    KindSC,
		Label:   fmt.Sprintf("%s / %v caps / x%d", an.Name, capKind, d.Config().Interleave),
		Metrics: m,
		SC:      d,
	})
}

// evalBuck sizes and evaluates one buck (phase count, frequency) plan.
func evalBuck(out *shard, spec Spec, node *tech.Node, ind tech.InductorOption,
	outCapKind tech.CapacitorKind, phases int, fsw float64) {
	d := spec.VOut / spec.VIn
	iPh := spec.IMax / float64(phases)
	// Target 60% phase-current ripple in CCM. The frequency
	// roll-off coefficient is independent of L0, so the required
	// effective inductance divides by it directly.
	dI := 0.6 * iPh
	lReq := spec.VOut * (1 - d) / (fsw * dI)
	coeff := ind.LEff(1.0, fsw) // roll-off factor at this frequency
	l := lReq / coeff
	if l <= 0 {
		out.rejected++
		return
	}
	// Output capacitance for the ripple target.
	n := float64(phases)
	cOut := dI / (8 * spec.RippleMax * fsw * n * n)
	if cOut < 5e-9 {
		cOut = 5e-9
	}
	cfg := buck.Config{
		Node: node, Inductor: tech.IntegratedThinFilm, OutCap: outCapKind,
		VIn: spec.VIn, VOut: spec.VOut,
		L: l, COut: cOut, FSw: fsw,
		GHigh: 1, GLow: 1, Interleave: phases,
	}
	bd, err := buck.New(cfg)
	if err != nil {
		out.rejected++
		return
	}
	bd, err = bd.OptimizeConductances(spec.IMax)
	if err != nil {
		out.rejected++
		return
	}
	m, err := bd.Evaluate(spec.IMax)
	if err != nil {
		out.rejected++
		return
	}
	if m.AreaDie > spec.AreaMax {
		out.rejected++
		return
	}
	out.candidates = append(out.candidates, Candidate{
		Kind:    KindBuck,
		Label:   fmt.Sprintf("buck x%d @ %.0f MHz", phases, fsw/1e6),
		Metrics: m,
		Buck:    bd,
	})
}

// evalLDO sizes and evaluates one digital-LDO sample-frequency plan.
func evalLDO(out *shard, spec Spec, node *tech.Node, fs float64) {
	headroom := spec.VIn - spec.VOut
	gPass := spec.IMax / headroom * 1.3
	// Output cap sized for the limit-cycle ripple target.
	cOut := spec.IMax / (spec.RippleMax * fs)
	interleave := 1
	// Cap the decap spend at a third of the budget by interleaving.
	capOpt, err := node.Capacitor(tech.DeepTrench)
	if err != nil {
		capOpt, _ = node.Capacitor(tech.MOSCap)
	}
	if a := capOpt.Area(cOut); a > spec.AreaMax/3 {
		shrink := a / (spec.AreaMax / 3)
		interleave = int(math.Ceil(shrink))
		if interleave > 64 {
			interleave = 64
		}
		cOut /= shrink
	}
	cfg := ldo.Config{
		Node: node, VIn: spec.VIn, VOut: spec.VOut,
		GPass: gPass, COut: cOut, FSample: fs, Interleave: interleave,
	}
	ld, err := ldo.New(cfg)
	if err != nil {
		out.rejected++
		return
	}
	m, err := ld.Evaluate(spec.IMax)
	if err != nil {
		out.rejected++
		return
	}
	if m.AreaDie > spec.AreaMax {
		out.rejected++
		return
	}
	out.candidates = append(out.candidates, Candidate{
		Kind:    KindLDO,
		Label:   fmt.Sprintf("digital LDO @ %.0f MHz x%d", fs/1e6, interleave),
		Metrics: m,
		LDO:     ld,
	})
}

// rank orders candidates per the objective. The order is total: objective
// ties fall through to the canonical candidate key and rows with
// non-finite metrics sort last, so the ranked list is byte-identical for
// any input permutation (see pareto.go).
func (r *Result) rank() {
	less := rankLess(r.Spec.Objective, r.Spec.EfficiencyFloor)
	sort.Slice(r.Candidates, func(i, j int) bool { return less(r.Candidates[i], r.Candidates[j]) })
}

// BestOfKind returns the top-ranked candidate of the given family, or false
// when none is feasible.
func (r *Result) BestOfKind(k Kind) (Candidate, bool) {
	for _, c := range r.Candidates {
		if c.Kind == k {
			return c, true
		}
	}
	return Candidate{}, false
}
