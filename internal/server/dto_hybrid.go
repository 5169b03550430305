package server

import (
	"fmt"

	"ivory/internal/pdn"
	"ivory/internal/soc"
	"ivory/internal/workload"
)

// HybridDomainDTO is one power domain of a custom floorplan in the
// POST /v1/hybrid body. Omitting domains entirely selects the default
// five-domain SoC (soc.DefaultFloorplan), which includes a phase-scheduled
// GPU; custom domains drive single built-in benchmarks.
type HybridDomainDTO struct {
	Name string `json:"name"`
	// Cores is the number of identical load blocks.
	Cores int `json:"cores"`
	// TDPPerCoreW is each block's average power (W) at VNominalV.
	TDPPerCoreW float64 `json:"tdp_per_core_w"`
	VNominalV   float64 `json:"vnominal_v"`
	// GridROhm / GridLH are the domain's on-chip grid impedance from a
	// centralized regulation point to a block.
	GridROhm float64 `json:"grid_r_ohm"`
	GridLH   float64 `json:"grid_l_h"`
	// Benchmark names the built-in workload driving the domain.
	Benchmark string `json:"benchmark"`
	// Seed overrides the domain's trace seed; 0 derives it from the
	// floorplan seed and the domain name.
	Seed int64 `json:"seed,omitempty"`
}

// HybridRequest is the body of POST /v1/hybrid: a per-domain rail
// assignment sweep over an SoC floorplan (the hybrid power-delivery
// question — which domains deserve on-chip regulation under a shared
// area budget).
type HybridRequest struct {
	// Domains is the custom floorplan; empty selects the default SoC.
	Domains []HybridDomainDTO `json:"domains,omitempty"`
	// VSourceV is the board supply for a custom floorplan; 0 selects 3.3 V.
	// Ignored (with the default floorplan's 3.3 V) when Domains is empty.
	VSourceV float64 `json:"vsource_v,omitempty"`
	// Seed makes a custom floorplan's workload synthesis reproducible;
	// 0 selects the case-study seed. Ignored when Domains is empty.
	Seed int64 `json:"seed,omitempty"`
	// AreaBudgetMM2 is the shared on-chip regulator area budget (mm²);
	// 0 disables the constraint.
	AreaBudgetMM2 float64 `json:"area_budget_mm2,omitempty"`
	// Rails restricts the per-domain delivery menu ("vrm", "ivr", "ivrN",
	// "ldo"); empty offers the default menu. Order never matters: menus are
	// canonically sorted and deduped before hashing and sweeping.
	Rails []string `json:"rails,omitempty"`
	// TUS / DtNS are the per-cell simulation span (µs) and step (ns);
	// 0 selects the sweep defaults (10 µs, 5 ns).
	TUS  float64 `json:"t_us,omitempty"`
	DtNS float64 `json:"dt_ns,omitempty"`
	// Top bounds the returned candidate list; 0 selects 10, -1 returns all
	// retained candidates (the server retains at most hybridRetain).
	Top       int  `json:"top,omitempty"`
	TimeoutMS int  `json:"timeout_ms,omitempty"`
	Async     bool `json:"async,omitempty"`
}

// hybridRetain caps the ranked candidates a hybrid sweep retains
// server-side. The cache stores one full response per spec hash and each
// request trims its own view, so the retention must cover any Top a later
// identical request may ask for without holding the whole assignment space.
const hybridRetain = 1000

// defaultHybridSeed matches the case-study system seed used across the
// experiments.
const defaultHybridSeed = 20170618

// ToSpec converts the request into the exact sweep spec a hybrid job runs:
// rails parsed and canonicalized, span and step defaulted
// (soc.DefaultT/DefaultDt), a custom floorplan built and validated with
// its supply and seed defaults. Worker count, retention, and context are
// the server's to set.
func (h HybridRequest) ToSpec() (soc.SweepSpec, error) {
	if h.TUS < 0 || h.DtNS < 0 {
		return soc.SweepSpec{}, fmt.Errorf("t_us and dt_ns must be >= 0")
	}
	rails := make([]soc.Rail, len(h.Rails))
	for i, t := range h.Rails {
		r, err := soc.ParseRail(t)
		if err != nil {
			return soc.SweepSpec{}, err
		}
		rails[i] = r
	}
	rails, err := soc.NormalizeRails(rails)
	if err != nil {
		return soc.SweepSpec{}, err
	}
	// Exact powers of ten: t_us 10 and an elided t_us give one float64.
	spec := soc.SweepSpec{
		Rails:         rails,
		AreaBudgetMM2: h.AreaBudgetMM2,
		T:             h.TUS / 1e6,
		Dt:            h.DtNS / 1e9,
	}
	if spec.T == 0 {
		spec.T = soc.DefaultT
	}
	if spec.Dt == 0 {
		spec.Dt = soc.DefaultDt
	}
	if len(h.Domains) > 0 {
		fl, err := h.floorplan()
		if err != nil {
			return soc.SweepSpec{}, err
		}
		spec.Floorplan = fl
	}
	return spec, nil
}

// floorplan realizes the custom-domain form on the case-study off-chip
// network.
func (h HybridRequest) floorplan() (*soc.Floorplan, error) {
	net, err := pdn.TypicalOffChip(60e-9, 1.2e-3)
	if err != nil {
		return nil, err
	}
	vSource := h.VSourceV
	if vSource == 0 {
		vSource = 3.3
	}
	seed := h.Seed
	if seed == 0 {
		seed = defaultHybridSeed
	}
	fl := &soc.Floorplan{Name: "custom", VSource: vSource, Network: net, Seed: seed}
	for _, d := range h.Domains {
		bench, err := workload.Get(d.Benchmark)
		if err != nil {
			return nil, fmt.Errorf("domain %q: %w", d.Name, err)
		}
		fl.Domains = append(fl.Domains, soc.Domain{
			Name:       d.Name,
			Cores:      d.Cores,
			TDPPerCore: d.TDPPerCoreW,
			VNominal:   d.VNominalV,
			//lint:ignore unitflow the wire name spells out both the quantity letter and its unit (grid_r_ohm)
			GridR:    d.GridROhm,
			GridL:    d.GridLH,
			Workload: bench,
			Seed:     d.Seed,
		})
	}
	if err := fl.Validate(); err != nil {
		return nil, err
	}
	return fl, nil
}

// Hash is the hybrid request's cache/singleflight key, hashed from its
// normalized sweep spec (ToSpec): semantically identical sweeps —
// regardless of rail listing order, elided defaults, Top, or timeouts —
// map to one key. It returns "" for a request ToSpec rejects.
func (h HybridRequest) Hash() string {
	spec, err := h.ToSpec()
	if err != nil {
		return ""
	}
	return hybridKey(spec)
}

func hybridKey(sp soc.SweepSpec) string {
	var f fieldHash
	f.float("budget", sp.AreaBudgetMM2)
	f.float("t", sp.T)
	f.float("dt", sp.Dt)
	f.str("rails", fmt.Sprint(sp.Rails))
	fl := sp.Floorplan
	if fl == nil {
		f.str("floorplan", "default")
		return f.sum()
	}
	f.float("vsource", fl.VSource)
	f.int("seed", fl.Seed)
	for _, d := range fl.Domains {
		f.str("dom", fmt.Sprintf("%q", []string{d.Name, d.Workload.TraceName()}))
		f.int("cores", int64(d.Cores))
		f.float("tdp", d.TDPPerCore)
		f.float("vnom", d.VNominal)
		f.float("r", d.GridR)
		f.float("l", d.GridL)
		f.int("seed", d.Seed)
	}
	return f.sum()
}

// HybridCellDTO is one domain × rail evaluation.
type HybridCellDTO struct {
	Domain string `json:"domain"`
	Rail   string `json:"rail"`
	Config string `json:"config"`
	// NoiseMVpp / DroopMV / MarginMV are the transient noise summary and
	// the guardband fed into the delivery ladder (mV).
	NoiseMVpp float64 `json:"noise_mvpp"`
	DroopMV   float64 `json:"droop_mv"`
	MarginMV  float64 `json:"margin_mv"`
	// AreaMM2 is the on-chip regulator area this rail spends (mm²).
	AreaMM2 float64 `json:"area_mm2"`
	// EfficiencyPct is the domain's guardband-aware delivery efficiency.
	EfficiencyPct float64 `json:"efficiency_pct"`
	// Infeasible carries the rejection reason when the rail cannot serve
	// the domain; the numeric fields are then zero.
	Infeasible string `json:"infeasible,omitempty"`
}

// HybridCandidateDTO is one ranked per-domain rail assignment.
type HybridCandidateDTO struct {
	Rank int `json:"rank"`
	// Assignment is the canonical "domain=rail,..." key.
	Assignment    string  `json:"assignment"`
	EfficiencyPct float64 `json:"efficiency_pct"`
	AreaMM2       float64 `json:"area_mm2"`
	WorstMarginMV float64 `json:"worst_margin_mv"`
	PCoreW        float64 `json:"pcore_w"`
	PSourceW      float64 `json:"psource_w"`
}

// HybridStatsDTO is the wire form of soc.SweepStats.
type HybridStatsDTO struct {
	Cells              int     `json:"cells"`
	CellsInfeasible    int     `json:"cells_infeasible"`
	Assignments        int     `json:"assignments"`
	Ranked             int     `json:"ranked"`
	RejectedInfeasible int     `json:"rejected_infeasible"`
	RejectedArea       int     `json:"rejected_area"`
	WallMS             float64 `json:"wall_ms"`
	AssignmentsPerSec  float64 `json:"assignments_per_sec"`
}

// HybridResponse is the body of a completed hybrid sweep.
type HybridResponse struct {
	// RequestHash identifies the request (the cache key).
	RequestHash string `json:"request_hash"`
	// Floorplan names the swept floorplan; Rails echoes the canonical menu.
	Rails     []string `json:"rails"`
	Floorplan string   `json:"floorplan"`
	// Best is the top-ranked assignment; absent when nothing was feasible.
	Best *HybridCandidateDTO `json:"best,omitempty"`
	// Candidates is the ranked list, truncated to the request's Top.
	Candidates []HybridCandidateDTO `json:"candidates"`
	// Cells is the full domain × rail evaluation grid.
	Cells []HybridCellDTO `json:"cells"`
	Stats HybridStatsDTO  `json:"stats"`
}

// HybridResponseFromResult converts a sweep result to wire form.
func HybridResponseFromResult(hash string, res *soc.SweepResult) *HybridResponse {
	out := &HybridResponse{
		RequestHash: hash,
		Floorplan:   res.Floorplan,
		Rails:       make([]string, 0, len(res.Rails)),
		Candidates:  make([]HybridCandidateDTO, 0, len(res.Candidates)),
		Cells:       make([]HybridCellDTO, 0, len(res.Cells)),
		Stats: HybridStatsDTO{
			Cells:              res.Stats.Cells,
			CellsInfeasible:    res.Stats.CellsInfeasible,
			Assignments:        res.Stats.Assignments,
			Ranked:             res.Stats.Ranked,
			RejectedInfeasible: res.Stats.RejectedInfeasible,
			RejectedArea:       res.Stats.RejectedArea,
			WallMS:             millis(res.Stats.Wall),
			AssignmentsPerSec:  res.Stats.AssignmentsPerSec,
		},
	}
	for _, r := range res.Rails {
		out.Rails = append(out.Rails, r.String())
	}
	for _, c := range res.Cells {
		out.Cells = append(out.Cells, HybridCellDTO{
			Domain:        c.Domain,
			Rail:          c.Rail.String(),
			Config:        c.Config,
			NoiseMVpp:     c.NoiseVpp * 1e3,
			DroopMV:       c.WorstDroop * 1e3,
			MarginMV:      c.MarginV * 1e3,
			AreaMM2:       c.AreaM2 * 1e6,
			EfficiencyPct: c.Efficiency * 100,
			Infeasible:    c.Infeasible,
		})
	}
	for i, c := range res.Candidates {
		out.Candidates = append(out.Candidates, HybridCandidateDTO{
			Rank:          i + 1,
			Assignment:    c.Key,
			EfficiencyPct: c.Efficiency * 100,
			AreaMM2:       c.AreaM2 * 1e6,
			WorstMarginMV: c.WorstMarginV * 1e3,
			PCoreW:        c.PCoreW,
			PSourceW:      c.PSourceW,
		})
	}
	if len(out.Candidates) > 0 {
		best := out.Candidates[0]
		out.Best = &best
	}
	return out
}

// Trimmed returns a shallow copy with the candidate list bounded to top
// (0 selects 10; negative keeps all retained). The cache stores the full
// response; each request trims its own view.
func (r *HybridResponse) Trimmed(top int) *HybridResponse {
	out := *r
	out.Candidates = topN(r.Candidates, top)
	return &out
}
