package workload

import "math"

// Source is the trace-synthesis seam the transient engines consume: any
// deterministic generator of per-core power traces. Benchmark (one
// workload's character) and PhaseSchedule (a timed composition of
// benchmarks) both implement it, so a heterogeneous-SoC domain can run a
// single benchmark or a phase program through exactly the same simulation
// path.
type Source interface {
	// TraceName identifies the source in results and per-core seed
	// derivation (the engines fold it into each core's PRNG stream seed).
	TraceName() string
	// TraceSignature digests every trace-determining parameter into a
	// 64-bit FNV-1a fingerprint; two sources produce identical traces for
	// identical (tdp, dt, n, seed) inputs only if their signatures match,
	// which is what trace memos key on.
	TraceSignature() uint64
	// PowerTraceInto synthesizes n samples of power draw (W) at interval
	// dt for a block of the given TDP into dst (nil or undersized dst
	// allocates). The same seed always yields the same trace.
	PowerTraceInto(dst []float64, tdp, dt float64, n int, seed int64) []float64
}

// FNV-1a, inlined rather than importing hash/fnv so signature and seed
// derivation stay allocation-free over mixed field types. It is the one
// copy in the tree: pds and soc derive their per-core and per-domain
// stream seeds from these helpers too.
const (
	// FNVOffset64 is the FNV-1a 64-bit offset basis, the initial h of a
	// digest.
	FNVOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// FNV1aString folds the bytes of s into the FNV-1a digest h.
func FNV1aString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// FNV1aU64 folds the little-endian bytes of v into the FNV-1a digest h.
func FNV1aU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

func fnv1aFloat(h uint64, f float64) uint64 { return FNV1aU64(h, math.Float64bits(f)) }

// TraceName implements Source.
func (b Benchmark) TraceName() string { return b.Name }

// TraceSignature implements Source: an FNV-1a digest over every
// trace-determining benchmark parameter, so a custom Benchmark reusing a
// builtin name cannot collide with it in a trace memo.
func (b Benchmark) TraceSignature() uint64 {
	h := FNV1aString(FNVOffset64, b.Name)
	h = fnv1aFloat(h, b.Base)
	h = fnv1aFloat(h, b.PhaseAmp)
	h = fnv1aFloat(h, b.PhasePeriod)
	h = fnv1aFloat(h, b.BurstAmp)
	for _, f := range b.BurstFreqs {
		h = fnv1aFloat(h, f)
	}
	h = fnv1aFloat(h, b.StepProb)
	h = fnv1aFloat(h, b.NoiseSigma)
	return h
}
