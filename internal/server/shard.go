package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"

	"ivory/internal/core"
	"ivory/internal/ivr"
)

// The shard wire protocol: a coordinator ships a canonical Spec plus a
// slice of its enumerated design space to a worker replica, and the worker
// returns the per-ref evaluation outcomes. Two addressing modes share one
// request shape:
//
//   - range mode (Refs empty): the slice is [Lo, Hi) of the worker's own
//     canonical enumeration. Total carries the coordinator's enumeration
//     length so version skew (replicas enumerating different spaces) is a
//     409, never a silent mis-merge. This is the exhaustive-Explore path.
//   - ref mode (Refs set): the slice is an explicit ConfigRef list chosen
//     by the coordinator's adaptive branch-and-bound state; Lo/Hi only
//     echo the coordinator's positional window.
//
// Candidate metrics travel as raw engine values (ivr.Metrics), not the
// unit-converted display DTOs: Go's float64 JSON round-trip is exact, so
// the coordinator's ranking, tie-breaking, and pruning decisions are
// bit-identical to a single-node run. Shards are all-or-nothing — a worker
// that cannot finish a slice returns an error status and the coordinator
// retries the whole slice elsewhere — so a merged result never mixes
// torn shard halves.

// ShardRequest is the body of POST /v1/shard/explore.
type ShardRequest struct {
	Spec     SpecDTO `json:"spec"`
	SpecHash string  `json:"spec_hash"`
	// AreaM2 is the coordinator's area budget at engine precision (m²).
	// SpecDTO's mm² unit does not round-trip exactly for every float64
	// (0.05 mm² drifts 1 ULP through ×1e-6, ×1e6, ×1e-6), and the
	// determinism contract needs coordinator and workers to hash and
	// evaluate identical bits; a nonzero value overrides the converted
	// Spec.AreaMM2.
	AreaM2 float64 `json:"area_m2,omitempty"`
	// Lo/Hi is the half-open slice of the canonical enumeration (range
	// mode) or the coordinator's positional window (ref mode).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Total is the coordinator's full enumeration length; nonzero values
	// are cross-checked against the worker's own enumeration.
	Total int `json:"total,omitempty"`
	// Refs switches to ref mode when non-empty.
	Refs []core.ConfigRef `json:"refs,omitempty"`
	// TimeoutMS caps the worker-side compute deadline (clamped under the
	// worker's own RequestTimeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ShardCandidateDTO is one accepted candidate at full engine precision.
type ShardCandidateDTO struct {
	Kind    int         `json:"kind"`
	Label   string      `json:"label"`
	Metrics ivr.Metrics `json:"metrics"`
}

// ShardOutcomeDTO is the outcome of one ref of the slice.
type ShardOutcomeDTO struct {
	Candidates []ShardCandidateDTO `json:"candidates,omitempty"`
	Rejected   int                 `json:"rejected,omitempty"`
}

// ShardResponse is the body of a completed shard evaluation. Outcomes
// aligns positionally with the requested slice.
type ShardResponse struct {
	SpecHash string            `json:"spec_hash"`
	Lo       int               `json:"lo"`
	Hi       int               `json:"hi"`
	Total    int               `json:"total"`
	Outcomes []ShardOutcomeDTO `json:"outcomes"`
}

func shardOutcomeDTO(o core.RefOutcome) ShardOutcomeDTO {
	d := ShardOutcomeDTO{Rejected: o.Rejected}
	for _, c := range o.Candidates {
		d.Candidates = append(d.Candidates, ShardCandidateDTO{Kind: int(c.Kind), Label: c.Label, Metrics: c.Metrics})
	}
	return d
}

// toRefOutcome reconstructs the engine outcome. The design pointers
// (Candidate.SC/Buck/LDO) do not cross the wire; ranking, pruning, and the
// response DTOs consume only Kind/Label/Metrics, so the merged result is
// still byte-identical on the wire.
func (d ShardOutcomeDTO) toRefOutcome() core.RefOutcome {
	out := core.RefOutcome{Rejected: d.Rejected}
	for _, c := range d.Candidates {
		out.Candidates = append(out.Candidates, core.Candidate{Kind: core.Kind(c.Kind), Label: c.Label, Metrics: c.Metrics})
	}
	return out
}

// refsHash distinguishes ref-mode singleflight keys that share a
// positional window but carry different ref sets.
func refsHash(refs []core.ConfigRef) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	for _, r := range refs {
		put(int(r.Kind))
		put(r.Topo)
		put(r.Cap)
		put(r.Axis)
		put(r.Pol)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// errShardSkew marks a fatal coordinator/worker disagreement (spec hash or
// enumeration length); retrying on another replica of the same build
// cannot help, so the coordinator fails the shard immediately.
var errShardSkew = errors.New("server: shard version skew")

// shardJob normalizes one shard evaluation on a worker replica. The
// request passes the same pipeline as full explorations — bounded queue
// with 429/Retry-After, singleflight per (hash, slice) — but its result is
// never cached: shard fragments must not shadow the full-result cache entry
// of the same spec hash, and the coordinator retries are cheaper than cache
// coherence across partial keys. The 409 version guard compares the
// coordinator's hash with the worker's hash of the same normalized spec.
func (s *Server) shardJob(req *ShardRequest) (*job, error) {
	norm, err := normalizeSpec(req.Spec, req.AreaM2)
	if err != nil {
		return nil, err
	}
	hash := SpecHash(norm)
	if req.SpecHash != "" && req.SpecHash != hash {
		return nil, fmt.Errorf("%w: spec hash mismatch: coordinator sent %s, worker computed %s", errShardSkew, req.SpecHash, hash)
	}
	key := "shard:" + hash + ":" + strconv.Itoa(req.Lo) + "-" + strconv.Itoa(req.Hi)
	if len(req.Refs) > 0 {
		key += ":" + refsHash(req.Refs)
	}
	run := func(ctx context.Context) (any, error) {
		sp := norm
		sp.Context, sp.Workers = ctx, s.cfg.EngineWorkers
		var rr *core.RangeResult
		var err error
		if len(req.Refs) > 0 {
			rr, err = core.EvalRefs(sp, req.Refs)
		} else {
			rr, err = core.ExploreRange(sp, req.Lo, req.Hi)
		}
		// All-or-nothing: a cancelled or failed slice returns an error
		// status so the coordinator retries the whole slice; partial shard
		// outcomes never ship. Bad ranges and invalid refs surface here
		// (the engine validates before evaluating).
		if err != nil {
			return nil, err
		}
		if req.Total > 0 && rr.Total != req.Total {
			return nil, fmt.Errorf("%w: coordinator enumerated %d configurations, worker %d", errShardSkew, req.Total, rr.Total)
		}
		resp := &ShardResponse{SpecHash: hash, Lo: req.Lo, Hi: req.Hi, Total: rr.Total}
		for _, o := range rr.Outcomes {
			resp.Outcomes = append(resp.Outcomes, shardOutcomeDTO(o))
		}
		return resp, nil
	}
	return &job{key: key, run: run, timeoutMS: req.TimeoutMS}, nil
}
