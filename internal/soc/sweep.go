package soc

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"ivory/internal/numeric"
	"ivory/internal/parallel"
	"ivory/internal/pds"
	"ivory/internal/sc"
)

// Sweep defaults.
const (
	// DefaultT and DefaultDt are the per-cell simulation span and step: a
	// 10 µs window resolves the grid/package resonances and at least one
	// full cycle of the default phase schedules at a quarter of the
	// case-study cell cost.
	DefaultT  = 10e-6
	DefaultDt = 5e-9
	// DefaultTop bounds the ranked candidate list a sweep retains when
	// SweepSpec.Top is 0; -1 retains every feasible assignment.
	DefaultTop = 100
	// maxAssignments caps the enumerable assignment space (rails ^
	// domains); larger sweeps must shrink the rail menu or split the
	// floorplan.
	maxAssignments = 1 << 20
)

// SweepSpec describes one hybrid rail-assignment sweep.
type SweepSpec struct {
	// Floorplan is the SoC under study; nil selects DefaultFloorplan.
	Floorplan *Floorplan
	// Rails is the per-domain delivery menu (shared by all domains); empty
	// selects DefaultRails. The menu is canonically sorted and deduped, so
	// listing order never affects results.
	Rails []Rail
	// AreaBudgetMM2 is the shared on-chip regulator area budget (mm²)
	// across all domains; 0 disables the constraint.
	AreaBudgetMM2 float64
	// T and Dt are the per-cell simulation span and step (s); zero selects
	// DefaultT / DefaultDt.
	T, Dt float64
	// Top bounds the ranked candidates retained on the result (0 selects
	// DefaultTop, negative retains all).
	Top int
	// Workers bounds the cell-evaluation pool; 0 uses one worker per CPU
	// (the parallel package default). Results are bit-identical at any
	// worker count.
	Workers int
	// Context, when non-nil, cancels a running sweep.
	Context context.Context
	// LDOHeadroomV is the digital-LDO input headroom (V); 0 selects
	// DefaultLDOHeadroomV.
	LDOHeadroomV float64
}

// Cell is one domain × rail evaluation: the transient noise summary, the
// extracted guardband, the on-chip regulator area, and the domain's
// steady-state delivery ladder at that guardband.
type Cell struct {
	// Domain and Rail identify the cell; Config is the rail's descriptive
	// label (pds.Delivery.Name).
	Domain string
	Rail   Rail
	Config string
	// VStats summarizes the worst block's supply voltage over the
	// transient window.
	VStats numeric.Summary
	// NoiseVpp is max-min of the core voltage (V); WorstDroop is
	// VNominal - min (V); MarginV is the guardband fed into the power
	// ladder (WorstDroop clamped at 0).
	NoiseVpp   float64
	WorstDroop float64
	MarginV    float64
	// AreaM2 is the on-chip regulator area this rail spends on the domain
	// (m²); zero for the off-chip VRM.
	AreaM2 float64
	// PCoreW / PSourceW / Efficiency are the domain's delivery ladder at
	// the guardband: useful core power, total source draw, and their
	// ratio.
	PCoreW     float64
	PSourceW   float64
	Efficiency float64
	// Infeasible carries the rejection reason when this rail cannot serve
	// the domain (distribution count not dividing the cores, load beyond
	// a dropout limit, ...); assignments using an infeasible cell are
	// rejected, not errored.
	Infeasible string
}

// Candidate is one ranked per-domain rail assignment.
type Candidate struct {
	// Rails assigns one rail per floorplan domain, in floorplan order.
	Rails []Rail
	// Key is the canonical label ("cpu-big=ivr4,gpu=vrm,..."), unique per
	// assignment and the deterministic tie-break of the ranking.
	Key string
	// AreaM2 is the summed on-chip regulator area (m²).
	AreaM2 float64
	// PCoreW / PSourceW / Efficiency aggregate the per-domain ladders:
	// Efficiency = ΣPCore / ΣPSource, the guardband-aware delivery
	// efficiency candidates are ranked by.
	PCoreW     float64
	PSourceW   float64
	Efficiency float64
	// WorstMarginV is the largest per-domain guardband in the assignment.
	WorstMarginV float64
}

// SweepStats is the run telemetry.
type SweepStats struct {
	// Cells is the evaluated domain × rail grid size; CellsInfeasible
	// counts cells no assignment can use.
	Cells           int
	CellsInfeasible int
	// Assignments is the enumerable space (rails ^ domains); Ranked
	// counts assignments that survived feasibility and budget;
	// RejectedInfeasible / RejectedArea count the rest, including whole
	// subtrees pruned on an infeasible or over-budget prefix (the
	// branch-and-bound shortcut — per-domain areas are non-negative, so a
	// busted prefix can never recover).
	Assignments        int
	Ranked             int
	RejectedInfeasible int
	RejectedArea       int
	// Wall is the elapsed sweep time; AssignmentsPerSec is
	// Assignments/Wall.
	Wall              time.Duration
	AssignmentsPerSec float64
}

// SweepResult is the outcome of one hybrid sweep.
type SweepResult struct {
	// Floorplan names the swept floorplan; Rails echoes the normalized
	// menu; T/Dt/AreaBudgetMM2/LDOHeadroomV echo the defaulted inputs.
	Floorplan     string
	Rails         []Rail
	T, Dt         float64
	AreaBudgetMM2 float64
	LDOHeadroomV  float64
	// Cells is the domain-major, rail-minor evaluation grid
	// (len = domains × rails).
	Cells []Cell
	// Candidates is the ranked assignment list (best first), bounded to
	// the spec's Top.
	Candidates []Candidate
	Stats      SweepStats
}

// Sweep evaluates the domain × rail cell grid in parallel (deterministic
// per-index slots, bit-identical at any worker count), then enumerates
// per-domain assignments serially in canonical order — domains in
// floorplan order, rails in canonical rail order, last domain cycling
// fastest — pruning subtrees whose prefix is already infeasible or over
// budget, and ranks the survivors by aggregate delivery efficiency
// (ties broken by canonical key, ascending).
func Sweep(spec SweepSpec) (*SweepResult, error) {
	ctx := spec.Context
	if ctx == nil {
		ctx = context.Background()
	}
	fl := spec.Floorplan
	if fl == nil {
		var err error
		if fl, err = DefaultFloorplan(); err != nil {
			return nil, err
		}
	}
	if err := fl.Validate(); err != nil {
		return nil, err
	}
	rails, err := NormalizeRails(spec.Rails)
	if err != nil {
		return nil, err
	}
	T, dt := spec.T, spec.Dt
	if T == 0 {
		T = DefaultT
	}
	if dt == 0 {
		dt = DefaultDt
	}
	if T <= 0 || dt <= 0 || int(T/dt) < 16 {
		return nil, fmt.Errorf("soc: span %g s at step %g s leaves no usable trace", T, dt)
	}
	headroomV := spec.LDOHeadroomV
	if headroomV == 0 {
		headroomV = DefaultLDOHeadroomV
	}
	if headroomV < 0 {
		return nil, fmt.Errorf("soc: negative LDO headroom %g", headroomV)
	}
	if spec.AreaBudgetMM2 < 0 {
		return nil, fmt.Errorf("soc: negative area budget %g", spec.AreaBudgetMM2)
	}
	D, R := len(fl.Domains), len(rails)
	assignments := 1
	for range fl.Domains {
		if assignments > maxAssignments/R {
			return nil, fmt.Errorf("soc: %d domains × %d rails exceeds the %d-assignment cap", D, R, maxAssignments)
		}
		assignments *= R
	}
	// Per-domain IVR base designs, sized by TDP.
	designs := make([]*sc.Design, D)
	for i, d := range fl.Domains {
		if designs[i], err = AutoIVRDesign(d.TDP(), d.VNominal); err != nil {
			return nil, fmt.Errorf("soc: domain %q IVR design: %w", d.Name, err)
		}
	}

	start := time.Now()
	res := &SweepResult{
		Floorplan:     fl.Name,
		Rails:         rails,
		T:             T,
		Dt:            dt,
		AreaBudgetMM2: spec.AreaBudgetMM2,
		LDOHeadroomV:  headroomV,
		Cells:         make([]Cell, D*R),
	}
	if err := parallel.ForContext(ctx, D*R, spec.Workers, func(ctx context.Context, i int) error {
		di, ri := i/R, i%R
		cell, err := evaluateCell(ctx, fl, fl.Domains[di], rails[ri], designs[di], T, dt, headroomV)
		res.Cells[i] = cell
		return err
	}); err != nil {
		return nil, err
	}
	res.Stats.Cells = D * R
	for _, c := range res.Cells {
		if c.Infeasible != "" {
			res.Stats.CellsInfeasible++
		}
	}
	res.Stats.Assignments = assignments

	keep := spec.Top
	if keep == 0 {
		keep = DefaultTop
	}
	if err := enumerate(ctx, res, fl, rails, keep); err != nil {
		return nil, err
	}
	sortCandidates(res.Candidates)
	if keep > 0 && len(res.Candidates) > keep {
		res.Candidates = res.Candidates[:keep]
	}
	res.Stats.Wall = time.Since(start)
	if s := res.Stats.Wall.Seconds(); s > 0 {
		res.Stats.AssignmentsPerSec = float64(assignments) / s
	}
	return res, nil
}

// evaluateCell runs one domain × rail transient plus its steady-state
// ladder. Domain-level infeasibility (a distribution count that cannot
// serve the cores, a load beyond a dropout limit) is recorded on the cell;
// only cancellation returns an error.
func evaluateCell(ctx context.Context, fl *Floorplan, d Domain, r Rail, ivrBase *sc.Design, T, dt, headroomV float64) (Cell, error) {
	dl, err := delivery(d, r, ivrBase, headroomV)
	cell := Cell{Domain: d.Name, Rail: r, Config: dl.Name()}
	if err != nil {
		cell.Infeasible = err.Error()
		return cell, nil
	}
	areaM2, efficiency, err := dl.Regulator(d.TDP() / d.VNominal)
	if err != nil {
		cell.Infeasible = err.Error()
		return cell, nil
	}
	sys := fl.system(d)
	nr, err := sys.Simulate(ctx, dl, d.Workload, T, dt, pds.SimOptions{})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return cell, ctxErr
		}
		cell.Infeasible = err.Error()
		return cell, nil
	}
	margin := nr.WorstDroop
	if margin < 0 {
		margin = 0
	}
	cell.VStats = nr.VStats
	cell.NoiseVpp = nr.NoiseVpp
	cell.WorstDroop = nr.WorstDroop
	cell.MarginV = margin
	cell.AreaM2 = areaM2

	bd, err := sys.PowerBreakdown(dl, margin, efficiency)
	if err != nil {
		cell.Infeasible = err.Error()
		return cell, nil
	}
	cell.PCoreW = bd.PCoreUseful
	cell.PSourceW = bd.PSource
	cell.Efficiency = bd.Efficiency
	return cell, nil
}

// delivery maps a rail to the pds delivery style it selects, with this
// package's design choices: the domain's AutoIVRDesign converter behind
// IVR rails and ldoDesignFor's LDO behind the digital-LDO rail. A failed
// LDO design is returned with the delivery, which still names the rail.
func delivery(d Domain, r Rail, ivrBase *sc.Design, headroomV float64) (pds.Delivery, error) {
	switch r.Kind {
	case CentralizedIVR:
		return pds.Delivery{IVRs: 1, SC: ivrBase}, nil
	case DistributedIVR:
		return pds.Delivery{IVRs: r.N, SC: ivrBase}, nil
	case DigitalLDO:
		des, err := ldoDesignFor(d, headroomV)
		return pds.Delivery{LDO: des, HeadroomV: headroomV}, err
	}
	return pds.Delivery{}, nil // OffChipVRM: NormalizeRails admits no other kind
}

// enumerate walks the assignment space depth-first in canonical order,
// pruning on infeasible or over-budget prefixes (every extension of a
// busted prefix is counted rejected without being visited), and appends
// surviving candidates with periodic compaction so retention stays
// bounded even on large spaces.
func enumerate(ctx context.Context, res *SweepResult, fl *Floorplan, rails []Rail, keep int) error {
	D, R := len(fl.Domains), len(rails)
	// powR[k] = R^k: the subtree size below a pruned prefix.
	powR := make([]int, D+1)
	powR[0] = 1
	for k := 1; k <= D; k++ {
		powR[k] = powR[k-1] * R
	}
	budgetM2 := res.AreaBudgetMM2 * 1e-6
	idx := make([]int, D)
	compactAt := 4 * keep
	if compactAt < 1024 {
		compactAt = 1024
	}
	var walk func(level int, areaM2, pCoreW, pSourceW, worstMarginV float64) error
	walk = func(level int, areaM2, pCoreW, pSourceW, worstMarginV float64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if level == D {
			res.Stats.Ranked++
			c := Candidate{
				Rails:        make([]Rail, D),
				AreaM2:       areaM2,
				PCoreW:       pCoreW,
				PSourceW:     pSourceW,
				Efficiency:   pCoreW / pSourceW,
				WorstMarginV: worstMarginV,
			}
			var key strings.Builder
			for i, ri := range idx {
				if i > 0 {
					key.WriteByte(',')
				}
				key.WriteString(fl.Domains[i].Name)
				key.WriteByte('=')
				key.WriteString(rails[ri].String())
				c.Rails[i] = rails[ri]
			}
			c.Key = key.String()
			res.Candidates = append(res.Candidates, c)
			if keep > 0 && len(res.Candidates) >= compactAt {
				sortCandidates(res.Candidates)
				res.Candidates = res.Candidates[:keep]
			}
			return nil
		}
		below := powR[D-level-1]
		for ri := 0; ri < R; ri++ {
			cell := &res.Cells[level*R+ri]
			if cell.Infeasible != "" {
				res.Stats.RejectedInfeasible += below
				continue
			}
			a := areaM2 + cell.AreaM2
			if budgetM2 > 0 && a > budgetM2 {
				res.Stats.RejectedArea += below
				continue
			}
			m := worstMarginV
			if cell.MarginV > m {
				m = cell.MarginV
			}
			idx[level] = ri
			if err := walk(level+1, a, pCoreW+cell.PCoreW, pSourceW+cell.PSourceW, m); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0, 0, 0, 0, 0)
}

// sortCandidates ranks by delivery efficiency (descending), canonical key
// ascending on ties — a strict total order, so ranked output is invariant
// across worker counts and retention compactions.
func sortCandidates(cands []Candidate) {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Efficiency > cands[j].Efficiency {
			return true
		}
		if cands[i].Efficiency < cands[j].Efficiency {
			return false
		}
		return cands[i].Key < cands[j].Key
	})
}
