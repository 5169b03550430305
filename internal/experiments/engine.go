package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"ivory/internal/pds"
)

// DefaultT and DefaultDt are the case-study span and step a zero
// TransientOptions.T / Dt selects.
const (
	DefaultT  = 20e-6
	DefaultDt = 1e-9
)

// TransientOptions controls the parallel transient case-study engine shared
// by Fig10/Fig11 (noise + waveforms), Fig13 (power breakdown), Fig12 (area
// sweep), GridScale, and the ablations.
type TransientOptions struct {
	// T and Dt set the simulated span per cell; zero selects the case-study
	// defaults (20 µs at 1 ns).
	T, Dt float64
	// Workers bounds the cell fan-out. <= 0 selects runtime.NumCPU();
	// 1 is the serial reference path. Results are bit-identical for every
	// worker count: cells are independent and merged in enumeration order.
	Workers int
	// Progress, when set, receives a snapshot after every completed cell.
	// It is called from a single goroutine at a time (never reentrantly).
	Progress func(TransientStats)
	// Benchmarks restricts the workload set of the noise engine (Fig10Run)
	// to the named built-in benchmarks (workload.Names()); empty selects
	// every benchmark. A name outside the registry is an input error. The
	// per-figure runners with fixed enumerations (Fig12/Fig13/GridScale/
	// Ablations) ignore the filter.
	Benchmarks []string
	// Configs restricts the VR configurations of the noise engine to the
	// given distributed-IVR counts (0 = off-chip VRM); empty selects the
	// case-study set {0, 1, 2, 4}. Negative counts are an input error.
	// Ignored by the fixed-enumeration runners, like Benchmarks.
	Configs []int
}

// TransientStats is the telemetry record of one transient-engine run,
// mirroring core.Stats for the exploration engine. Cell counters are
// deterministic; cache and wall-clock fields are measurements (the trace
// cache counters are package-wide, so a concurrent run can bleed into the
// diff).
type TransientStats struct {
	// Cells is the number of simulation cells the run enumerates; Done is
	// how many have completed (== Cells on an uncancelled run).
	Cells, Done int
	// TraceCacheHits/Misses are the pds core-current trace memo lookups
	// this run performed.
	TraceCacheHits, TraceCacheMisses int64
	// ExploreWall is time spent getting the IVR design before any cell
	// ran: the static design-space exploration on the first run in a
	// process, about 0 afterwards (the design is memoized). SimWall is the
	// transient fan-out; Wall the total.
	ExploreWall, SimWall, Wall time.Duration
	// CellsPerSec is Done/SimWall.
	CellsPerSec float64
}

// String renders the one-line run summary the CLIs print.
func (s TransientStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d cells, trace cache %d hit/%d miss, explore %s + sim %s = %s",
		s.Done, s.Cells, s.TraceCacheHits, s.TraceCacheMisses,
		s.ExploreWall.Round(time.Millisecond), s.SimWall.Round(time.Millisecond),
		s.Wall.Round(time.Millisecond))
	if s.CellsPerSec > 0 {
		fmt.Fprintf(&b, " (%.1f cells/s)", s.CellsPerSec)
	}
	return b.String()
}

// transientTracker accumulates TransientStats during the cell fan-out and
// feeds the optional progress callback, serialized under one mutex exactly
// like core's exploration tracker.
type transientTracker struct {
	mu       sync.Mutex
	stats    TransientStats
	progress func(TransientStats)
	start    time.Time
	simStart time.Time
	// Baselines for diffing the package-wide trace-cache counters.
	hits0, misses0 int64
}

func newTransientTracker(cells int, exploreWall time.Duration, progress func(TransientStats)) *transientTracker {
	t := &transientTracker{progress: progress, start: time.Now(), simStart: time.Now()}
	t.hits0, t.misses0 = pds.TraceCacheStats()
	t.stats.Cells = cells
	t.stats.ExploreWall = exploreWall
	return t
}

// snapshotLocked fills the measurement fields; t.mu must be held.
func (t *transientTracker) snapshotLocked() TransientStats {
	s := t.stats
	h, m := pds.TraceCacheStats()
	s.TraceCacheHits, s.TraceCacheMisses = h-t.hits0, m-t.misses0
	s.SimWall = time.Since(t.simStart)
	s.Wall = s.ExploreWall + s.SimWall
	if secs := s.SimWall.Seconds(); secs > 0 {
		s.CellsPerSec = float64(s.Done) / secs
	}
	return s
}

// cellDone records one completed cell and, when a progress callback is
// registered, hands it a snapshot.
func (t *transientTracker) cellDone() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Done++
	if t.progress != nil {
		t.progress(t.snapshotLocked())
	}
}

// finalize returns the completed record.
func (t *transientTracker) finalize() TransientStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}
