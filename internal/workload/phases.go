package workload

import (
	"fmt"
	"math"
)

// Phase is one step of a PhaseSchedule: a named builtin benchmark run for
// a fixed duration at an activity scale.
type Phase struct {
	// Benchmark names the builtin workload driving this phase.
	Benchmark string
	// Duration is the phase length (s). The schedule cycles when the
	// requested trace span exceeds the total of all phase durations.
	Duration float64
	// Scale multiplies the synthesized power samples (activity scaling for
	// a throttled or boosted domain); 0 selects 1. Scaling is applied after
	// synthesis, so a Scale above 1 can exceed the generator's internal
	// 1.25·TDP clamp — it models a domain whose allotted TDP understates
	// its burst draw.
	Scale float64
}

// PhaseSchedule is a workload program: a cyclic sequence of benchmark
// phases, usable anywhere a single Benchmark is (both implement Source).
// It models a power domain whose activity changes over time — the
// FlexWatts-style scenario where the interesting noise events sit at phase
// boundaries, not inside a stationary workload.
//
// Determinism: the schedule derives one PRNG stream per phase occurrence
// from the caller's seed (see the package doc for the exact rule), so a
// trace is reproducible sample-for-sample from (schedule, tdp, dt, n,
// seed) alone, and truncating or extending the span never changes the
// samples already generated.
type PhaseSchedule struct {
	// Name identifies the schedule; it enters result labels and the seed
	// derivation, so two schedules with the same phases but different
	// names draw distinct streams.
	Name string
	// Phases is the cyclic program; at least one phase is required.
	Phases []Phase
}

// Validate checks the schedule: a name, at least one phase, every phase a
// known builtin benchmark with positive duration and non-negative scale.
func (ps PhaseSchedule) Validate() error {
	if ps.Name == "" {
		return fmt.Errorf("workload: phase schedule needs a name")
	}
	if len(ps.Phases) == 0 {
		return fmt.Errorf("workload: phase schedule %q has no phases", ps.Name)
	}
	for i, ph := range ps.Phases {
		if _, err := Get(ph.Benchmark); err != nil {
			return fmt.Errorf("workload: schedule %q phase %d: %w", ps.Name, i, err)
		}
		if ph.Duration <= 0 {
			return fmt.Errorf("workload: schedule %q phase %d: duration %g must be positive", ps.Name, i, ph.Duration)
		}
		if ph.Scale < 0 {
			return fmt.Errorf("workload: schedule %q phase %d: scale %g must be >= 0", ps.Name, i, ph.Scale)
		}
	}
	return nil
}

// TraceName implements Source.
func (ps PhaseSchedule) TraceName() string { return ps.Name }

// TraceSignature implements Source: the digest folds the schedule name and
// every phase's benchmark fingerprint, duration, and scale, so schedules
// differing in any trace-determining input never share a memo entry. A
// "schedule:" prefix keeps the digest domain-separated from Benchmark
// signatures.
func (ps PhaseSchedule) TraceSignature() uint64 {
	h := fnv1aString(fnvOffset64, "schedule:")
	h = fnv1aString(h, ps.Name)
	for _, ph := range ps.Phases {
		bs := fnv1aString(fnvOffset64, ph.Benchmark)
		if b, ok := builtin[ph.Benchmark]; ok {
			bs = b.TraceSignature()
		}
		h = fnv1aU64(h, bs)
		h = fnv1aFloat(h, ph.Duration)
		h = fnv1aFloat(h, ph.Scale)
	}
	return h
}

// segmentSeed derives the PRNG stream seed of one phase occurrence:
// seed XOR FNV-1a(schedule name, occurrence index, phase benchmark name).
// Folding the occurrence index gives every cycle through the program fresh
// randomness; folding the caller's seed last keeps the per-core layering
// the engines apply upstream intact.
func (ps PhaseSchedule) segmentSeed(seed int64, occurrence int, bench string) int64 {
	h := fnv1aString(fnvOffset64, ps.Name)
	h = fnv1aU64(h, uint64(occurrence))
	h = fnv1aString(h, bench)
	return seed ^ int64(h)
}

// PowerTraceInto implements Source by stitching per-phase segments: sample
// k belongs to the occurrence whose [start, start+Duration) window covers
// k·dt, each occurrence's samples are generated by its benchmark's own
// PowerTraceInto directly into the output sub-slice (no per-phase
// allocation), restarted at local time zero with the occurrence's derived
// seed, then scaled by Phase.Scale. An invalid schedule returns nil, like
// degenerate (n, tdp, dt) inputs do — validate upstream for a diagnostic.
func (ps PhaseSchedule) PowerTraceInto(dst []float64, tdp, dt float64, n int, seed int64) []float64 {
	if n <= 0 || tdp <= 0 || dt <= 0 || ps.Validate() != nil {
		return nil
	}
	out := dst
	if cap(out) < n {
		out = make([]float64, n)
	} else {
		out = out[:n]
	}
	k := 0
	start := 0.0
	for occ := 0; k < n; occ++ {
		ph := ps.Phases[occ%len(ps.Phases)]
		bench := builtin[ph.Benchmark]
		end := start + ph.Duration
		// The occurrence owns samples k..stop-1: those with t = k·dt
		// strictly inside the window. A phase shorter than dt can own no
		// samples; start still advances, so the walk always terminates.
		stop := int(math.Ceil(end / dt))
		if stop > n {
			stop = n
		}
		if stop > k {
			seg := out[k:stop:stop]
			bench.PowerTraceInto(seg, tdp, dt, stop-k, ps.segmentSeed(seed, occ, ph.Benchmark))
			scale := ph.Scale
			if scale == 0 {
				scale = 1
			}
			for i := range seg {
				seg[i] *= scale
			}
			k = stop
		}
		start = end
	}
	return out
}
