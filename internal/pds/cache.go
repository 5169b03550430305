package pds

import (
	"ivory/internal/parallel"
	"ivory/internal/workload"
)

// Per-benchmark core current traces are memoized package-wide: every
// configuration of a case-study cell (off-chip VRM, 1, 2 and 4 IVRs) draws
// the same workload at the same voltage, so without the memo the engine
// re-synthesizes identical traces four times per benchmark — a third of a
// cell's cost. The key carries everything the traces depend on: a digest of
// the full benchmark parameter set, core count, TDP, sample interval and
// count, supply voltage, seed, and the complete load model. Cached traces
// are shared across callers and goroutines and are strictly read-only,
// which the engine's determinism tests exercise under the race detector.
var traceMemo = parallel.NewMemo[traceKey, [][]float64](traceCacheLimit)

// traceCacheLimit bounds the memo so streams of one-off systems cannot grow
// it without bound; past the limit, traces are computed but not stored. One
// entry holds Cores full-length traces (~320 KB at case-study settings), so
// the cap also bounds the resident set to a few tens of MB.
const traceCacheLimit = 64

type traceKey struct {
	benchSig uint64 // Source.TraceSignature of the workload
	cores    int
	tdp      float64
	dt       float64
	n        int
	v        float64
	seed     int64
	load     workload.LoadModel
}

// TraceCacheStats returns the cumulative hit/miss counters of the
// package-wide core-current trace memo (see parallel.Memo.Stats).
func TraceCacheStats() (hits, misses int64) { return traceMemo.Stats() }

// benchStreamSeed derives the PRNG stream seed for one core of one
// benchmark. The name enters through an FNV-1a hash: the previous
// len(bench.Name) offset collided for benchmarks whose names share a length,
// handing them identical power traces (the satellite regression test pins
// this). XOR-folding the hash avoids signed-overflow games while keeping the
// derivation deterministic.
func benchStreamSeed(base int64, name string, core int) int64 {
	h := workload.FNV1aString(workload.FNVOffset64, name)
	h = workload.FNV1aU64(h, uint64(core))
	return base ^ int64(h)
}

// coreCurrentsCached returns the per-core current traces for one benchmark,
// memoized package-wide. The returned slices are shared: callers must treat
// them as read-only.
func (s *System) coreCurrentsCached(src workload.Source, dt float64, n int, v float64) [][]float64 {
	key := traceKey{
		benchSig: src.TraceSignature(),
		cores:    s.Cores,
		tdp:      s.TDPPerCore,
		dt:       dt,
		n:        n,
		v:        v,
		seed:     s.Seed,
		load:     s.Load,
	}
	return traceMemo.Get(key, func() [][]float64 { return s.coreCurrents(src, dt, n, v) })
}
