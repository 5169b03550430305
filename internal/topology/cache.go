package topology

import (
	"strconv"
	"strings"

	"ivory/internal/parallel"
)

// Analyze results are memoized package-wide: every Explore call re-derives
// the same Analysis for the same conversion ratio (the generators are
// deterministic), and the KVL/KCL least-squares solves dominate the cost of
// enumerating the SC design space. The cache key is the canonical netlist —
// name, node count, capacitor terminals, switch terminals and phases — so
// two structurally different topologies never collide even if a user reuses
// a name. Element labels are excluded: they do not influence the analysis.
//
// Cached values (including errors, which are just as deterministic) are
// shared across callers and goroutines; Analysis is treated as read-only
// everywhere in the tree, which the determinism tests exercise under the
// race detector.
var analyzeMemo = parallel.NewMemo[string, cachedAnalysis](analyzeCacheLimit)

// CacheStats returns the cumulative hit/miss counters of the package-wide
// Analyze memo (see parallel.Memo.Stats); core.Explore's Stats diffs them
// per run.
func CacheStats() (hits, misses int64) { return analyzeMemo.Stats() }

// analyzeCacheLimit bounds the memo so adversarial streams of one-off
// custom netlists cannot grow it without bound; past the limit, analyses
// are computed but not stored.
const analyzeCacheLimit = 512

type cachedAnalysis struct {
	an  *Analysis
	err error
}

// cacheKey serializes the structural identity of the netlist.
func (t *Topology) cacheKey() string {
	var b strings.Builder
	b.Grow(len(t.Name) + 8*len(t.Caps) + 12*len(t.Switches) + 16)
	b.WriteString(t.Name)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(t.numNodes))
	for _, c := range t.Caps {
		b.WriteByte('c')
		b.WriteString(strconv.Itoa(int(c.Pos)))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(int(c.Neg)))
	}
	for _, sw := range t.Switches {
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(int(sw.A)))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(int(sw.B)))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(sw.Phase)))
	}
	return b.String()
}

// analyzeCached returns the memoized analysis for t, computing and
// (size permitting) storing it on first sight.
func (t *Topology) analyzeCached() (*Analysis, error) {
	c := analyzeMemo.Get(t.cacheKey(), func() cachedAnalysis {
		an, err := t.analyze()
		return cachedAnalysis{an: an, err: err}
	})
	return c.an, c.err
}
