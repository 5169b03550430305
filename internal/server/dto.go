// Package server is the Ivory serving subsystem: a long-running HTTP/JSON
// daemon (cmd/ivoryd) that exposes the design-space exploration and
// transient case-study engines behind a bounded job queue, an LRU result
// cache with singleflight coalescing, Prometheus-style metrics, and a
// graceful SIGTERM drain. The CLI (`ivory explore -json`) shares the DTO
// types in this file, so batch and interactive users read one schema.
package server

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"ivory/internal/core"
	"ivory/internal/experiments"
	"ivory/internal/ivr"
)

// SpecDTO is the wire form of core.Spec: every engine input that affects
// the result, none of the run-control plumbing (workers, context, progress
// — the server owns those). Fields mirror the paper's Table 1.
type SpecDTO struct {
	// Node selects the technology node (e.g. "45nm").
	Node string `json:"node"`
	// VInV and VOutV are the converter input voltage and regulation target.
	VInV  float64 `json:"vin_v"`
	VOutV float64 `json:"vout_v"`
	// IMaxA is the maximum load current (A).
	IMaxA float64 `json:"imax_a"`
	// AreaMM2 is the die-area budget in mm² (the CLI's unit, not m²).
	AreaMM2 float64 `json:"area_mm2"`
	// RippleMaxV bounds static ripple (V); 0 selects 1% of VOut.
	RippleMaxV float64 `json:"ripple_max_v,omitempty"`
	// Objective is "eff" | "area" | "noise" (long forms accepted); empty
	// selects max-efficiency.
	Objective string `json:"objective,omitempty"`
	// EfficiencyFloor prunes low-efficiency candidates under the area/noise
	// objectives; 0 selects the engine default (0.25).
	EfficiencyFloor float64 `json:"efficiency_floor,omitempty"`
	// Kinds restricts the converter families ("SC", "buck", "LDO",
	// case-insensitive); empty explores all three.
	Kinds []string `json:"kinds,omitempty"`
	// FSwMaxHz bounds switching frequency; 0 selects 1 GHz.
	FSwMaxHz float64 `json:"fsw_max_hz,omitempty"`
	// Search is "exhaustive" | "adaptive" (aliases "full" / "pruned");
	// empty selects the exhaustive reference sweep. Adaptive prunes with
	// analytic bounds and successive halving and returns the same ranked
	// winners at a fraction of the evaluations.
	Search string `json:"search,omitempty"`
}

// ToSpec converts the DTO into an engine spec. Validation beyond parsing
// (positive voltages, known node, ...) happens in core.Spec.Normalized.
func (d SpecDTO) ToSpec() (core.Spec, error) {
	obj, err := core.ParseObjective(d.Objective)
	if err != nil {
		return core.Spec{}, err
	}
	search, err := core.ParseSearch(d.Search)
	if err != nil {
		return core.Spec{}, err
	}
	var kinds []core.Kind
	for _, k := range d.Kinds {
		kind, err := core.ParseKind(k)
		if err != nil {
			return core.Spec{}, err
		}
		kinds = append(kinds, kind)
	}
	return core.Spec{
		NodeName:        d.Node,
		VIn:             d.VInV,
		VOut:            d.VOutV,
		IMax:            d.IMaxA,
		AreaMax:         d.AreaMM2 * 1e-6,
		RippleMax:       d.RippleMaxV,
		Objective:       obj,
		EfficiencyFloor: d.EfficiencyFloor,
		Kinds:           kinds,
		FSwMax:          d.FSwMaxHz,
		Search:          search,
	}, nil
}

// SpecDTOFromSpec converts an engine spec (typically the defaulted echo on
// Result.Spec) back to wire form. Run-control fields are dropped.
func SpecDTOFromSpec(s core.Spec) SpecDTO {
	kinds := make([]string, 0, len(s.Kinds))
	for _, k := range s.Kinds {
		kinds = append(kinds, k.String())
	}
	return SpecDTO{
		Node:            s.NodeName,
		VInV:            s.VIn,
		VOutV:           s.VOut,
		IMaxA:           s.IMax,
		AreaMM2:         s.AreaMax * 1e6,
		RippleMaxV:      s.RippleMax,
		Objective:       s.Objective.String(),
		EfficiencyFloor: s.EfficiencyFloor,
		Kinds:           kinds,
		FSwMaxHz:        s.FSwMax,
		Search:          s.Search.String(),
	}
}

// normalizeSpec converts the DTO into the exact spec the engine explores:
// parsed, defaults applied, kinds canonical. A positive areaM2 overrides
// the mm² budget at engine precision (see ShardRequest.AreaM2).
func normalizeSpec(d SpecDTO, areaM2 float64) (core.Spec, error) {
	spec, err := d.ToSpec()
	if err != nil {
		return core.Spec{}, err
	}
	if areaM2 > 0 {
		spec.AreaMax = areaM2
	}
	return spec.Normalized()
}

// SpecHash returns the canonical identity of a normalized spec
// (core.Spec.Normalized): FNV-1a over a fixed-order field string with
// shortest-round-trip float formatting, so semantically identical specs —
// regardless of field order, elided defaults, or worker counts — map to
// one cache/singleflight key. It applies no defaults itself: hashing a raw
// spec would split "ripple 0 (defaulted)" and "ripple 10 mV (explicit)"
// into two keys.
func SpecHash(s core.Spec) string {
	var f fieldHash
	f.str("node", s.NodeName)
	f.float("vin", s.VIn)
	f.float("vout", s.VOut)
	f.float("imax", s.IMax)
	f.float("area", s.AreaMax)
	f.float("ripple", s.RippleMax)
	f.float("efloor", s.EfficiencyFloor)
	f.float("fswmax", s.FSwMax)
	f.str("obj", s.Objective.String())
	f.str("search", s.Search.String())
	// Kind names in string order: the established key encoding, independent
	// of the canonical enumeration order Normalized leaves in s.Kinds.
	kinds := SpecDTOFromSpec(s).Kinds
	sort.Strings(kinds)
	f.str("kinds", strings.Join(kinds, ","))
	return f.sum()
}

// ExploreRequest is the body of POST /v1/explore.
type ExploreRequest struct {
	Spec SpecDTO `json:"spec"`
	// Top bounds the returned candidate list; 0 selects 10, -1 returns all.
	Top int `json:"top,omitempty"`
	// TimeoutMS caps this job's compute deadline below the server default;
	// 0 inherits the server default. Values above the server cap are
	// clamped, not rejected.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Async submits the job and returns 202 with a job id immediately;
	// poll GET /v1/jobs/{id} for the result.
	Async bool `json:"async,omitempty"`
}

// LossDTO itemizes converter losses in watts (ivr.LossBreakdown).
type LossDTO struct {
	ConductionW float64 `json:"conduction_w"`
	GateDriveW  float64 `json:"gate_drive_w"`
	ParasiticW  float64 `json:"parasitic_w"`
	LeakageW    float64 `json:"leakage_w"`
	ControlW    float64 `json:"control_w"`
	MagneticW   float64 `json:"magnetic_w"`
	DropoutW    float64 `json:"dropout_w"`
}

// CandidateDTO is one ranked design point.
type CandidateDTO struct {
	Kind          string  `json:"kind"`
	Label         string  `json:"label"`
	EfficiencyPct float64 `json:"efficiency_pct"`
	RippleMV      float64 `json:"ripple_mv"`
	FSwMHz        float64 `json:"fsw_mhz"`
	AreaMM2       float64 `json:"area_mm2"`
	POutW         float64 `json:"pout_w"`
	Loss          LossDTO `json:"loss"`
}

func candidateDTO(c core.Candidate) CandidateDTO {
	m := c.Metrics
	return CandidateDTO{
		Kind:          c.Kind.String(),
		Label:         c.Label,
		EfficiencyPct: m.Efficiency * 100,
		RippleMV:      m.RippleVpp * 1e3,
		FSwMHz:        m.FSw / 1e6,
		AreaMM2:       m.AreaDie * 1e6,
		POutW:         m.POut,
		Loss:          lossDTO(m.Loss),
	}
}

func lossDTO(l ivr.LossBreakdown) LossDTO {
	return LossDTO{
		ConductionW: l.Conduction,
		GateDriveW:  l.GateDrive,
		ParasiticW:  l.Parasitic,
		LeakageW:    l.Leakage,
		ControlW:    l.Control,
		MagneticW:   l.Magnetic,
		DropoutW:    l.Dropout,
	}
}

// KindStatsDTO is one family's accept/reject tally.
type KindStatsDTO struct {
	Kind     string `json:"kind"`
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
}

// ExploreStatsDTO is the wire form of core.Stats.
type ExploreStatsDTO struct {
	Jobs             int            `json:"jobs"`
	Done             int            `json:"done"`
	Accepted         int            `json:"accepted"`
	Rejected         int            `json:"rejected"`
	PerKind          []KindStatsDTO `json:"per_kind"`
	PrunedBound      int            `json:"pruned_bound"`
	PrunedHalving    int            `json:"pruned_halving"`
	FrontSize        int            `json:"front_size"`
	TopoCacheHits    int64          `json:"topo_cache_hits"`
	TopoCacheMisses  int64          `json:"topo_cache_misses"`
	WallMS           float64        `json:"wall_ms"`
	CandidatesPerSec float64        `json:"candidates_per_sec"`
	Cancelled        bool           `json:"cancelled,omitempty"`
}

func exploreStatsDTO(s core.Stats) ExploreStatsDTO {
	d := ExploreStatsDTO{
		Jobs:             s.Jobs,
		Done:             s.Done,
		Accepted:         s.Accepted(),
		Rejected:         s.Rejected(),
		PrunedBound:      s.PrunedBound,
		PrunedHalving:    s.PrunedHalving,
		FrontSize:        s.FrontSize,
		TopoCacheHits:    s.TopoCacheHits,
		TopoCacheMisses:  s.TopoCacheMisses,
		WallMS:           float64(s.Wall.Milliseconds()),
		CandidatesPerSec: s.CandidatesPerSec,
		Cancelled:        s.Cancelled,
	}
	for k := core.KindSC; k <= core.KindLDO; k++ {
		ks := s.ByKind(k)
		if ks.Evaluated() > 0 {
			d.PerKind = append(d.PerKind, KindStatsDTO{Kind: k.String(), Accepted: ks.Accepted, Rejected: ks.Rejected})
		}
	}
	return d
}

// ExploreResponse is the body of a completed exploration — from the server
// or from `ivory explore -json`, byte-identical schemas.
type ExploreResponse struct {
	// SpecHash identifies the normalized spec (the cache key).
	SpecHash string `json:"spec_hash"`
	// Spec echoes the normalized (defaulted) input.
	Spec SpecDTO `json:"spec"`
	// Best is the winning candidate; absent when no candidate survived.
	Best *CandidateDTO `json:"best,omitempty"`
	// Candidates is the ranked list, truncated to the request's Top.
	Candidates []CandidateDTO `json:"candidates"`
	// TotalCandidates is the untruncated feasible-candidate count.
	TotalCandidates int `json:"total_candidates"`
	// Rejected counts configurations that failed sizing or feasibility.
	Rejected int             `json:"rejected"`
	Stats    ExploreStatsDTO `json:"stats"`
	// Cancelled marks a partial result: the run was stopped (deadline or
	// drain) and Candidates covers only the completed prefix of the space.
	Cancelled bool `json:"cancelled,omitempty"`
	// Incomplete marks a cluster partial: shard retries were exhausted and
	// Candidates covers only the slices that completed. Cancelled is also
	// set — an incomplete result IS a stopped run — so clients that only
	// check cancelled keep the PR 3 partial-result contract.
	Incomplete bool `json:"incomplete,omitempty"`
	// Error carries the interruption cause on a partial result.
	Error string `json:"error,omitempty"`
}

// ExploreResponseFromResult converts an engine result — complete, or the
// ranked partial a cancelled run returns — into the wire form, keeping
// every candidate. runErr is the error Explore returned alongside the
// partial result (nil on a complete run). Trim for transport with Trimmed.
func ExploreResponseFromResult(res *core.Result, runErr error) *ExploreResponse {
	r := &ExploreResponse{
		SpecHash:        SpecHash(res.Spec),
		Spec:            SpecDTOFromSpec(res.Spec),
		TotalCandidates: len(res.Candidates),
		Rejected:        res.Rejected,
		Stats:           exploreStatsDTO(res.Stats),
		Cancelled:       res.Stats.Cancelled,
		Candidates:      make([]CandidateDTO, 0, len(res.Candidates)),
	}
	for _, c := range res.Candidates {
		r.Candidates = append(r.Candidates, candidateDTO(c))
	}
	if len(r.Candidates) > 0 {
		best := r.Candidates[0]
		r.Best = &best
	}
	if runErr != nil {
		r.Error = runErr.Error()
		r.Cancelled = true
		r.Incomplete = errors.Is(runErr, ErrIncomplete)
	}
	return r
}

// Trimmed returns a shallow copy with the candidate list bounded to top
// (0 selects 10; negative keeps all). The cache stores the full response;
// each request trims its own view.
func (r *ExploreResponse) Trimmed(top int) *ExploreResponse {
	out := *r
	out.Candidates = topN(r.Candidates, top)
	return &out
}

// topN bounds a ranked list to its first top entries (0 selects 10;
// negative keeps all) without copying it.
func topN[T any](ranked []T, top int) []T {
	if top == 0 {
		top = 10
	}
	if top < 0 || top >= len(ranked) {
		return ranked
	}
	return ranked[:top]
}

// TransientRequest is the body of POST /v1/transient: a scoped run of the
// workload-driven transient noise engine (the paper's Fig. 10 case study).
type TransientRequest struct {
	// TUS is the simulated span per cell in µs; 0 selects the case-study
	// default (20 µs).
	TUS float64 `json:"t_us,omitempty"`
	// DtNS is the integration step in ns; 0 selects 1 ns.
	DtNS float64 `json:"dt_ns,omitempty"`
	// Benchmarks restricts the workloads simulated; empty runs all
	// built-in benchmarks (workload.Names). Unknown names are rejected
	// before any simulation runs.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Configs restricts the VR configurations (distributed-IVR counts;
	// 0 = off-chip VRM); empty runs the case-study set {0,1,2,4}.
	Configs   []int `json:"configs,omitempty"`
	TimeoutMS int   `json:"timeout_ms,omitempty"`
	Async     bool  `json:"async,omitempty"`
}

// Options converts the request into the exact engine options a transient
// job runs: span and step defaulted (20 µs, 1 ns), benchmarks and configs
// sorted and deduped, so cells come back in canonical order. Worker count
// is the server's to set.
func (t TransientRequest) Options(workers int) experiments.TransientOptions {
	// Dividing by the exact power of ten lands on the same float64 as the
	// engine's SI defaults, so t_us 20 and an elided t_us are one input.
	o := experiments.TransientOptions{
		T:          t.TUS / 1e6,
		Dt:         t.DtNS / 1e9,
		Workers:    workers,
		Benchmarks: canonicalSet(t.Benchmarks),
		Configs:    canonicalSet(t.Configs),
	}
	if o.T <= 0 {
		o.T = experiments.DefaultT
	}
	if o.Dt <= 0 {
		o.Dt = experiments.DefaultDt
	}
	return o
}

// Hash is the transient request's cache/singleflight key, hashed from its
// normalized options: the engine is deterministic for a given (span,
// step, benchmark set, config set), so identical sweeps coalesce exactly
// like explorations do.
func (t TransientRequest) Hash() string { return transientKey(t.Options(0)) }

func transientKey(o experiments.TransientOptions) string {
	var f fieldHash
	f.float("t", o.T)
	f.float("dt", o.Dt)
	f.str("bench", fmt.Sprintf("%q", o.Benchmarks))
	f.str("configs", fmt.Sprint(o.Configs))
	return f.sum()
}

// canonicalSet returns a sorted, deduplicated copy of a set-valued field;
// an empty set is nil, however it was spelled.
func canonicalSet[T cmp.Ordered](in []T) []T {
	if len(in) == 0 {
		return nil
	}
	out := slices.Clone(in)
	slices.Sort(out)
	return slices.Compact(out)
}

// TransientCellDTO is one benchmark × configuration noise summary.
type TransientCellDTO struct {
	Benchmark string  `json:"benchmark"`
	Config    string  `json:"config"`
	MedianV   float64 `json:"median_v"`
	Q1V       float64 `json:"q1_v"`
	Q3V       float64 `json:"q3_v"`
	MinV      float64 `json:"min_v"`
	MaxV      float64 `json:"max_v"`
	NoiseMVpp float64 `json:"noise_mvpp"`
	DroopMV   float64 `json:"droop_mv"`
}

// TransientStatsDTO is the wire form of experiments.TransientStats.
// explore_wall_ms is the time spent getting the case-study IVR design: the
// static exploration on the first transient run in the process, about 0
// once the design is memoized.
type TransientStatsDTO struct {
	Cells            int     `json:"cells"`
	Done             int     `json:"done"`
	TraceCacheHits   int64   `json:"trace_cache_hits"`
	TraceCacheMisses int64   `json:"trace_cache_misses"`
	ExploreWallMS    float64 `json:"explore_wall_ms"`
	SimWallMS        float64 `json:"sim_wall_ms"`
	WallMS           float64 `json:"wall_ms"`
	CellsPerSec      float64 `json:"cells_per_sec"`
}

// TransientResponse is the body of a completed transient sweep.
type TransientResponse struct {
	// RequestHash identifies the request (the cache key).
	RequestHash string             `json:"request_hash"`
	Cells       []TransientCellDTO `json:"cells"`
	// NoiseByConfigMVpp / DroopByConfigMV aggregate worst-case noise and
	// droop per configuration (the paper's guardband comparison).
	NoiseByConfigMVpp map[string]float64 `json:"noise_by_config_mvpp"`
	DroopByConfigMV   map[string]float64 `json:"droop_by_config_mv"`
	Stats             TransientStatsDTO  `json:"stats"`
	Error             string             `json:"error,omitempty"`
}

// TransientResponseFromResult converts an engine result to wire form.
func TransientResponseFromResult(hash string, res *experiments.Fig10Result) *TransientResponse {
	out := &TransientResponse{
		RequestHash:       hash,
		Cells:             make([]TransientCellDTO, 0, len(res.Cells)),
		NoiseByConfigMVpp: map[string]float64{},
		DroopByConfigMV:   map[string]float64{},
		Stats: TransientStatsDTO{
			Cells:            res.RunStats.Cells,
			Done:             res.RunStats.Done,
			TraceCacheHits:   res.RunStats.TraceCacheHits,
			TraceCacheMisses: res.RunStats.TraceCacheMisses,
			ExploreWallMS:    float64(res.RunStats.ExploreWall.Milliseconds()),
			SimWallMS:        float64(res.RunStats.SimWall.Milliseconds()),
			WallMS:           float64(res.RunStats.Wall.Milliseconds()),
			CellsPerSec:      res.RunStats.CellsPerSec,
		},
	}
	for _, c := range res.Cells {
		out.Cells = append(out.Cells, TransientCellDTO{
			Benchmark: c.Benchmark,
			Config:    c.Config,
			MedianV:   c.Stats.Median,
			Q1V:       c.Stats.Q1,
			Q3V:       c.Stats.Q3,
			MinV:      c.Stats.Min,
			MaxV:      c.Stats.Max,
			NoiseMVpp: c.NoiseVpp * 1e3,
			DroopMV:   c.WorstDroop * 1e3,
		})
	}
	for cfg, v := range res.NoiseByConfig {
		out.NoiseByConfigMVpp[cfg] = v * 1e3
	}
	for cfg, v := range res.DroopByConfig {
		out.DroopByConfigMV[cfg] = v * 1e3
	}
	return out
}

// ClusterWorkerDTO is one replica's health and shard telemetry in the
// GET /v1/cluster body.
type ClusterWorkerDTO struct {
	URL              string `json:"url"`
	Healthy          bool   `json:"healthy"`
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
	LastError        string `json:"last_error,omitempty"`
	// ShardsOK/ShardsErr/Retries count this worker's completed shard
	// attempts, failed attempts, and reassignments dispatched to it.
	ShardsOK  int64 `json:"shards_ok"`
	ShardsErr int64 `json:"shards_err"`
	Retries   int64 `json:"retries"`
	// Latency quantiles over the last shard attempts (ms).
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP90MS float64 `json:"latency_p90_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`
}

// ClusterResponse is the body of GET /v1/cluster. Workers is empty on
// non-coordinator replicas.
type ClusterResponse struct {
	Role    string             `json:"role"`
	Workers []ClusterWorkerDTO `json:"workers,omitempty"`
}

// ErrorResponse is the uniform error body for non-2xx statuses.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterS mirrors the Retry-After header on 429/503 responses.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}
