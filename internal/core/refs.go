package core

import (
	"context"
	"fmt"
	"math"

	"ivory/internal/parallel"
	"ivory/internal/sc"
	"ivory/internal/tech"
	"ivory/internal/topology"
)

// Evaluation plumbing. The design space of a spec is addressed by
// ConfigRefs — small coordinates into the canonical enumeration lattices
// (scCapShares, buckFreqs, ldoSampleFreqs) — so the expensive
// sizing/evaluation step is a pluggable Evaluator: the local worker pool
// (the classic path) or any wrapper around EvalRefs, such as a tracing
// one.
//
// Determinism is the contract that makes this safe: enumeration order is a
// pure function of the normalized spec, every ref evaluates to the same
// candidates, and results are merged positionally — so any evaluator that
// returns the same per-ref outcomes yields a bit-identical ranked result.

// ConfigRef addresses one evaluation unit of a spec's design space. The
// integer fields index the canonical per-kind axes:
//
//	KindSC:   Topo = scRatios(spec) index, Cap = scCapKinds index,
//	          Axis = scCapShares index; the unit sizes both
//	          conductance-allocation policies
//	KindBuck: Topo = phase-plan index (minPhases, minPhases*2 after the
//	          1..64 filter), Axis = buckFreqs index
//	KindLDO:  Axis = ldoSampleFreqs index
//
// A ref is only meaningful against the normalized spec it was enumerated
// from.
type ConfigRef struct {
	Kind Kind
	Topo int
	Cap  int
	Axis int
}

// RefOutcome is the evaluation outcome of one ConfigRef: the accepted
// candidates (possibly several — an SC unit sizes two policies)
// and the count of configurations rejected during sizing/feasibility.
type RefOutcome struct {
	Candidates []Candidate
	Rejected   int
}

// Evaluator evaluates one deterministic batch of refs and returns the
// outcomes positionally aligned with refs. Implementations must be
// content-deterministic — outcome i depends only on refs[i] and the spec,
// never on scheduling — and should call done(i) as each ref completes so
// run telemetry (Spec.Progress / Spec.OnImproved) stays live; done is safe
// for concurrent invocation. On cancellation or partial failure the
// evaluator returns the outcomes it has (unfinished slots zero-valued)
// together with the error; the engine merges the completed prefix exactly
// like a cancelled local run. The engine keeps pointers into each
// completed outcome's Candidates, so an evaluator must not modify them
// after calling done. Without Spec.Progress or Spec.OnImproved the engine
// reads the counts and candidates of each ref reported through done from
// the returned outcomes once the evaluator returns, not at the done call,
// so the outcome returned at position i must be the one passed to done(i).
type Evaluator func(ctx context.Context, refs []ConfigRef, done func(i int, out *RefOutcome)) ([]RefOutcome, error)

// evalContext resolves the cheap shared context of a spec's design space —
// topology analyses, device options, phase plans — once, so refs can be
// enumerated and evaluated without re-deriving it per configuration.
type evalContext struct {
	spec   Spec
	node   *tech.Node
	usable float64 // SC area after the controller/routing reserve

	// SC axes (resolved only when KindSC is explored).
	topos   []*topology.Analysis // scRatios order; nil = analysis failed (pre-rejected)
	plans   []*sc.SwitchPlan     // aligned with topos; nil = switch mapping failed (rejected per configuration)
	capOpts []tech.CapacitorOption
	capOK   []bool
	// scLabels[topo][cap] is the label of the topology's candidates with
	// that capacitor kind, up to their interleave count.
	scLabels [][len(scCapKinds)]string

	// Buck axes.
	indOK      bool
	ind        tech.InductorOption
	outCapKind tech.CapacitorKind
	phasePlans []int
}

// newEvalContext builds the shared context for an already-defaulted spec.
func newEvalContext(spec Spec, node *tech.Node) *evalContext {
	ec := &evalContext{spec: spec, node: node, usable: 0.80 * spec.AreaMax}
	for _, k := range spec.Kinds {
		switch k {
		case KindSC:
			for _, top := range scRatios(spec) {
				an, err := top.Analyze()
				if err != nil {
					ec.topos = append(ec.topos, nil)
					ec.plans = append(ec.plans, nil)
					continue
				}
				// A failed switch mapping leaves a nil plan: each of the
				// topology's configurations is then rejected, as it was when
				// every configuration mapped its own switches.
				plan, _ := sc.PlanSwitches(an, node, spec.VIn)
				ec.topos = append(ec.topos, an)
				ec.plans = append(ec.plans, plan)
			}
			ec.scLabels = make([][len(scCapKinds)]string, len(ec.topos))
			for ti, an := range ec.topos {
				if an == nil {
					continue
				}
				for ci, kind := range scCapKinds {
					ec.scLabels[ti][ci] = an.Name + " / " + kind.String() + " caps / x"
				}
			}
			ec.capOpts = make([]tech.CapacitorOption, len(scCapKinds))
			ec.capOK = make([]bool, len(scCapKinds))
			for i, kind := range scCapKinds {
				opt, err := node.Capacitor(kind)
				if err != nil {
					continue
				}
				ec.capOpts[i], ec.capOK[i] = opt, true
			}
		case KindBuck:
			ind, err := node.Inductor(tech.IntegratedThinFilm)
			if err != nil {
				continue
			}
			ec.indOK, ec.ind = true, ind
			ec.outCapKind = tech.DeepTrench
			if _, err := node.Capacitor(ec.outCapKind); err != nil {
				ec.outCapKind = tech.MOSCap
			}
			minPhases := int(math.Ceil(spec.IMax / (ind.IMax * 0.8)))
			for _, phases := range []int{minPhases, minPhases * 2} {
				if phases >= 1 && phases <= 64 {
					ec.phasePlans = append(ec.phasePlans, phases)
				}
			}
		}
	}
	return ec
}

// enumerate expands the full exhaustive job list in canonical order —
// spec.Kinds order, then the nested per-kind axes exactly as the serial
// loops of the original Explore walked them — and returns the
// enumeration-time rejection counts (failed topology analyses, missing
// devices) per kind. The ref list is a pure function of the normalized
// spec: every replica of the same build enumerates the identical list.
// A counting walk sizes the list before the filling walk, so it is
// allocated once.
func (ec *evalContext) enumerate() (refs []ConfigRef, pre [numKinds]int) {
	n := 0
	ec.walk(func(ConfigRef) { n++ })
	refs = make([]ConfigRef, 0, n)
	pre = ec.walk(func(r ConfigRef) { refs = append(refs, r) })
	return refs, pre
}

// walk visits the exhaustive job list in canonical order and returns the
// enumeration-time rejection counts per kind.
func (ec *evalContext) walk(visit func(ConfigRef)) (pre [numKinds]int) {
	for _, k := range ec.spec.Kinds {
		switch k {
		case KindSC:
			for ti, an := range ec.topos {
				if an == nil {
					pre[KindSC]++
					continue
				}
				for ci := range scCapKinds {
					if !ec.capOK[ci] {
						continue
					}
					for ai := range scCapShares {
						visit(ConfigRef{Kind: KindSC, Topo: ti, Cap: ci, Axis: ai})
					}
				}
			}
		case KindBuck:
			if !ec.indOK {
				pre[KindBuck]++
				continue
			}
			for pi := range ec.phasePlans {
				for fi, fsw := range buckFreqs {
					if fsw > ec.spec.FSwMax {
						continue
					}
					visit(ConfigRef{Kind: KindBuck, Topo: pi, Axis: fi})
				}
			}
		case KindLDO:
			for fi, fs := range ldoSampleFreqs {
				if fs > ec.spec.FSwMax {
					continue
				}
				visit(ConfigRef{Kind: KindLDO, Axis: fi})
			}
		}
	}
	return pre
}

// validate bounds-checks a ref against the resolved axes; EvalRefs calls
// it on every caller-supplied ref before evaluation.
func (ec *evalContext) validate(ref ConfigRef) error {
	switch ref.Kind {
	case KindSC:
		if ref.Topo < 0 || ref.Topo >= len(ec.topos) || ec.topos[ref.Topo] == nil {
			return fmt.Errorf("core: SC ref topology %d out of range", ref.Topo)
		}
		if ref.Cap < 0 || ref.Cap >= len(scCapKinds) || !ec.capOK[ref.Cap] {
			return fmt.Errorf("core: SC ref capacitor kind %d unavailable", ref.Cap)
		}
		if ref.Axis < 0 || ref.Axis >= len(scCapShares) {
			return fmt.Errorf("core: SC ref share index %d out of range", ref.Axis)
		}
	case KindBuck:
		if !ec.indOK || ref.Topo < 0 || ref.Topo >= len(ec.phasePlans) {
			return fmt.Errorf("core: buck ref phase plan %d out of range", ref.Topo)
		}
		if ref.Axis < 0 || ref.Axis >= len(buckFreqs) {
			return fmt.Errorf("core: buck ref frequency index %d out of range", ref.Axis)
		}
	case KindLDO:
		if ref.Axis < 0 || ref.Axis >= len(ldoSampleFreqs) {
			return fmt.Errorf("core: LDO ref frequency index %d out of range", ref.Axis)
		}
	default:
		return fmt.Errorf("core: ref has unknown kind %d", int(ref.Kind))
	}
	return nil
}

// eval sizes and evaluates one ref into the shard. The ref must have been
// produced by enumerate or passed validate.
func (ec *evalContext) eval(ref ConfigRef, out *shard) {
	switch ref.Kind {
	case KindSC:
		// Cost-aware allocation first, then uniform.
		ec.evalSCPolicy(out, ref, false)
		ec.evalSCPolicy(out, ref, true)
	case KindBuck:
		evalBuck(out, ec.spec, ec.node, ec.ind, ec.outCapKind, ec.phasePlans[ref.Topo], buckFreqs[ref.Axis])
	case KindLDO:
		evalLDO(out, ec.spec, ec.node, ldoSampleFreqs[ref.Axis])
	}
}

// evalChunk is the number of consecutive refs one parallel job evaluates:
// enough to amortize the pool's per-job dispatch over refs that take a
// few microseconds each, few enough that the chunks of one batch still
// spread over the workers.
const evalChunk = 16

// localEvaluator runs batches on the in-process worker pool — the classic
// execution path, expressed through the Evaluator seam. Each
// parallel.ForContext job evaluates a chunk of evalChunk consecutive refs
// into their per-index slots and reports each one through done as it
// completes, so the merge stays bit-identical to serial for any worker
// count. A job polls its ctx's Done channel between refs, which takes no
// lock, and stops its chunk once the run is cancelled.
func (ec *evalContext) localEvaluator(workers int) Evaluator {
	return func(ctx context.Context, refs []ConfigRef, done func(int, *RefOutcome)) ([]RefOutcome, error) {
		outs := make([]RefOutcome, len(refs))
		chunks := (len(refs) + evalChunk - 1) / evalChunk
		err := parallel.ForContext(ctx, chunks, workers, func(jctx context.Context, j int) error {
			stop := jctx.Done()
			for i := j * evalChunk; i < min((j+1)*evalChunk, len(refs)); i++ {
				select {
				case <-stop:
					return nil // ForContext reports the cancellation
				default:
				}
				var sh shard
				ec.eval(refs[i], &sh)
				outs[i] = sh.outcome()
				done(i, &outs[i])
			}
			return nil
		})
		return outs, err
	}
}

// RangeResult is the outcome of evaluating an explicit ref list.
type RangeResult struct {
	// Outcomes aligns positionally with the evaluated refs.
	Outcomes []RefOutcome
	// Stats carries the evaluation telemetry (per-kind counts, wall time).
	// Enumeration-time rejections are excluded.
	Stats Stats
}

// EvalRefs evaluates an explicit ref list on the local pool, the batches
// an Evaluator passed to ExploreWith receives. Refs are validated against
// the spec before any evaluation runs.
func EvalRefs(spec Spec, refs []ConfigRef) (*RangeResult, error) {
	if err := spec.defaults(); err != nil {
		return nil, err
	}
	node, err := tech.Lookup(spec.NodeName)
	if err != nil {
		return nil, err
	}
	ec := newEvalContext(spec, node)
	for i, ref := range refs {
		if err := ec.validate(ref); err != nil {
			return nil, fmt.Errorf("core: ref %d invalid: %w", i, err)
		}
	}
	return evalRefsLocal(spec, ec, refs)
}

// evalRefsLocal fans refs over the local pool with full run telemetry.
func evalRefsLocal(spec Spec, ec *evalContext, refs []ConfigRef) (*RangeResult, error) {
	tr := newTracker(spec)
	tr.addJobs(len(refs))
	eval := ec.localEvaluator(spec.Workers)
	done, end := tr.batch(refs)
	outs, err := eval(specContext(spec), refs, done)
	end(outs)
	var m merged
	m.add(outs)
	return &RangeResult{Outcomes: outs, Stats: tr.finalize(err != nil, m.accepted)}, err
}

// specContext returns the spec's run-control context, Background when unset.
func specContext(spec Spec) context.Context {
	if spec.Context != nil {
		return spec.Context
	}
	return context.Background()
}
