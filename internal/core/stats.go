package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"ivory/internal/topology"
)

// numKinds mirrors the Kind enum (SC, Buck, LDO) for per-kind accounting.
const numKinds = 3

// KindStats counts one converter family's outcomes in an exploration run.
type KindStats struct {
	// Accepted is the number of feasible candidates the family produced.
	Accepted int
	// Rejected counts the family's configurations that failed sizing or
	// feasibility, including enumeration-time rejections (topology
	// analysis, device lookup) attributed before any job runs.
	Rejected int
}

// Evaluated is the total number of configurations the family visited.
func (k KindStats) Evaluated() int { return k.Accepted + k.Rejected }

// Stats is the telemetry record of one Explore run. A snapshot is passed
// to Spec.Progress after every completed evaluation job, and the final
// record lands on Result.Stats. The per-kind counters are deterministic —
// identical for every worker count and to the serial path — while the
// wall-clock and shared-cache fields are measurements, not invariants
// (the topology counters are package-wide, so a concurrent run can bleed
// into the diff).
type Stats struct {
	// Jobs is the number of evaluation jobs the enumeration produced;
	// Done is how many have completed (== Jobs on an uncancelled run).
	Jobs, Done int
	// PerKind indexes KindStats by Kind (KindSC, KindBuck, KindLDO).
	PerKind [numKinds]KindStats
	// TopoCacheHits/Misses are the topology analyze-memo lookups this run
	// performed (hits return a shared Analysis, misses solved KVL/KCL).
	TopoCacheHits, TopoCacheMisses int64
	// PrunedBound counts configurations the adaptive search skipped
	// because their SC topology's analytic efficiency ceiling could not
	// place in the established winners. It is zero on an exhaustive run.
	PrunedBound int
	// FrontSize is the cardinality of the incrementally maintained
	// (efficiency, area) Pareto front over the accepted candidates.
	FrontSize int
	// Wall is the elapsed time of the evaluation phase.
	Wall time.Duration
	// CandidatesPerSec is Evaluated()/Wall — the paper's "sweeps are
	// cheap" claim as a number.
	CandidatesPerSec float64
	// Cancelled marks a run stopped by Spec.Context before completion;
	// the merged candidates then cover only the completed jobs.
	Cancelled bool
}

// ByKind returns the counters of one converter family.
func (s Stats) ByKind(k Kind) KindStats {
	if k < 0 || int(k) >= numKinds {
		return KindStats{}
	}
	return s.PerKind[k]
}

// Accepted is the total feasible-candidate count across families.
func (s Stats) Accepted() int {
	n := 0
	for _, k := range s.PerKind {
		n += k.Accepted
	}
	return n
}

// Rejected is the total rejection count across families.
func (s Stats) Rejected() int {
	n := 0
	for _, k := range s.PerKind {
		n += k.Rejected
	}
	return n
}

// Evaluated is the total number of configurations visited.
func (s Stats) Evaluated() int { return s.Accepted() + s.Rejected() }

// Pruned is the total number of configurations the adaptive search
// skipped without evaluating.
func (s Stats) Pruned() int { return s.PrunedBound }

// String renders the one-line run summary the CLIs print.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d jobs, %d evaluated (%d accepted, %d rejected",
		s.Done, s.Jobs, s.Evaluated(), s.Accepted(), s.Rejected())
	var parts []string
	for k := 0; k < numKinds; k++ {
		ks := s.PerKind[k]
		if ks.Evaluated() > 0 {
			parts = append(parts, fmt.Sprintf("%v %d/%d", Kind(k), ks.Accepted, ks.Evaluated()))
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(&b, "; %s", strings.Join(parts, ", "))
	}
	if s.Pruned() > 0 {
		fmt.Fprintf(&b, "; %d pruned", s.Pruned())
	}
	fmt.Fprintf(&b, "), topo cache %d hit/%d miss, %s",
		s.TopoCacheHits, s.TopoCacheMisses, s.Wall.Round(time.Millisecond))
	if s.CandidatesPerSec > 0 {
		fmt.Fprintf(&b, " (%.0f cand/s)", s.CandidatesPerSec)
	}
	if s.Cancelled {
		b.WriteString(" [cancelled]")
	}
	return b.String()
}

// tracker accumulates Stats during the evaluation fan-out and feeds the
// optional progress/improvement callbacks. It runs in one of two modes,
// fixed at construction:
//
//   - Live, when Spec.Progress or Spec.OnImproved is set: each completed
//     job's counts are added, its candidates are folded into the
//     best-so-far and the incremental Pareto front, and the callbacks run,
//     all under one mutex, so the callbacks never run reentrantly even
//     though completions arrive from many worker goroutines.
//   - Counters only, otherwise: a completed job only marks its slot in
//     its batch, with no lock and no shared write; the batch's counts are
//     summed from its outcomes once the evaluator returns, and finalize
//     folds the accepted candidates into the front once. The
//     non-dominated set does not depend on insertion order, so Stats
//     comes out the same in both modes.
type tracker struct {
	mu         sync.Mutex
	stats      Stats
	live       bool
	progress   func(Stats)
	onImproved func(Candidate, Stats)
	rank       ranking
	best       rankKey // best.c points into a completed job's candidates
	front      *ParetoSet
	start      time.Time
	// Baselines for diffing the package-wide cache counters.
	topoHits0, topoMisses0 int64
}

func newTracker(spec Spec) *tracker {
	t := &tracker{
		live:       spec.Progress != nil || spec.OnImproved != nil,
		progress:   spec.Progress,
		onImproved: spec.OnImproved,
		rank:       ranking{spec.Objective, spec.EfficiencyFloor},
		front:      NewParetoSet(),
		start:      time.Now(),
	}
	t.topoHits0, t.topoMisses0 = topology.CacheStats()
	return t
}

// snapshotLocked fills the measurement fields; t.mu must be held.
func (t *tracker) snapshotLocked() Stats {
	s := t.stats
	h, m := topology.CacheStats()
	s.TopoCacheHits, s.TopoCacheMisses = h-t.topoHits0, m-t.topoMisses0
	s.FrontSize = t.front.Size()
	s.Wall = time.Since(t.start)
	if secs := s.Wall.Seconds(); secs > 0 {
		s.CandidatesPerSec = float64(s.Evaluated()) / secs
	}
	return s
}

// addJobs grows the planned-job count. The exhaustive path calls it once;
// the adaptive path calls it at every stage it runs.
func (t *tracker) addJobs(n int) {
	t.mu.Lock()
	t.stats.Jobs += n
	t.mu.Unlock()
}

// enumRejected attributes enumeration-time rejections (topology analysis,
// device lookup) to a family before any job runs.
func (t *tracker) enumRejected(kind Kind, n int) {
	t.mu.Lock()
	t.stats.PerKind[kind].Rejected += n
	t.mu.Unlock()
}

// prunedBound counts configurations the adaptive search skipped without
// evaluating.
func (t *tracker) prunedBound(n int) {
	t.mu.Lock()
	t.stats.PrunedBound += n
	t.mu.Unlock()
}

// batch returns the done callback to hand the evaluator for one batch of
// refs, and the end function to call with the outcomes it returns. In
// live mode done records each job as it completes (jobDone) and end does
// nothing. In counters-only mode done marks the job's slot and end adds
// the marked jobs' counts, read from the returned outcomes.
func (t *tracker) batch(refs []ConfigRef) (done func(int, *RefOutcome), end func([]RefOutcome)) {
	if t.live {
		return func(i int, out *RefOutcome) {
			t.jobDone(refs[i].Kind, out.Candidates, out.Rejected)
		}, func([]RefOutcome) {}
	}
	completed := make([]bool, len(refs))
	return func(i int, _ *RefOutcome) { completed[i] = true }, func(outs []RefOutcome) {
		t.mu.Lock()
		defer t.mu.Unlock()
		for i, ok := range completed {
			if !ok || i >= len(outs) {
				continue
			}
			ks := &t.stats.PerKind[refs[i].Kind]
			t.stats.Done++
			ks.Accepted += len(outs[i].Candidates)
			ks.Rejected += outs[i].Rejected
		}
	}
}

// jobDone records one completed evaluation unit's outcome on a live
// tracker, folds its candidates into the best-so-far and the Pareto
// front, and fires the callbacks.
func (t *tracker) jobDone(kind Kind, cands []Candidate, rejected int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Done++
	t.stats.PerKind[kind].Accepted += len(cands)
	t.stats.PerKind[kind].Rejected += rejected
	improved := false
	for i := range cands {
		c := &cands[i]
		t.front.Insert(c)
		if k := t.rank.key(c); t.best.c == nil || t.rank.less(&k, &t.best) {
			t.best = k
			improved = true
		}
	}
	if improved && t.onImproved != nil {
		t.onImproved(*t.best.c, t.snapshotLocked())
	}
	if t.progress != nil {
		t.progress(t.snapshotLocked())
	}
}

// finalize returns the completed record. accepted holds the candidates of
// every completed job; a counters-only tracker folds them into its front
// here, a live one has folded them as their jobs completed.
func (t *tracker) finalize(cancelled bool, accepted []*Candidate) Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.live {
		for _, c := range accepted {
			t.front.Insert(c)
		}
	}
	s := t.snapshotLocked()
	s.Cancelled = cancelled
	return s
}
