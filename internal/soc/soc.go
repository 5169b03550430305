// Package soc models heterogeneous SoC power delivery: a floorplan of
// named power domains (CPU clusters, GPU, memory controller, uncore,
// accelerators), each with its own workload, TDP, nominal voltage, and
// grid-region geometry, plus a per-domain rail assignment — off-chip VRM,
// centralized IVR, distributed IVRs, or a digital LDO — and an optimizer
// that ranks assignments under a shared on-chip regulator area budget.
//
// The paper's case study stops at one fixed 4-SM rail; the FlexWatts
// direction this package opens asks the hybrid question instead: which
// domains deserve an IVR? Every domain evaluation composes the existing
// internal/pds transient machinery (a one-domain floorplan reproduces the
// paper's 4-SM results bit-for-bit — the equivalence test pins it), so the
// subsystem adds scenario structure, not a second simulator.
//
// Modeling scope: domains are evaluated independently against the shared
// off-chip network — cross-domain PDN coupling is neglected, consistent
// with the per-configuration treatment of the existing case study. Because
// of that independence the sweep simulates only the |domains| × |rails|
// cell grid and combines cells arithmetically per assignment, which is
// what makes exhaustive assignment enumeration affordable.
package soc

import (
	"fmt"

	"ivory/internal/ldo"
	"ivory/internal/pdn"
	"ivory/internal/pds"
	"ivory/internal/sc"
	"ivory/internal/tech"
	"ivory/internal/topology"
	"ivory/internal/workload"
)

// Domain is one power domain of the floorplan.
type Domain struct {
	// Name identifies the domain; it enters candidate labels and the
	// default per-domain seed derivation, so it must be unique.
	Name string
	// Cores is the number of identical load blocks in the domain.
	Cores int
	// TDPPerCore is each block's average power at nominal voltage (W).
	TDPPerCore float64
	// VNominal is the domain's nominal supply (V).
	VNominal float64
	// GridR and GridL are the domain's on-chip grid impedance from a
	// centralized regulation point to a block; distributing N IVRs divides
	// both by N (the pds.System convention).
	GridR, GridL float64
	// Load is the block current model; a zero value derives the default
	// (PNominal = TDPPerCore at VNominal, 25% leakage — the case-study
	// load character).
	Load workload.LoadModel
	// Workload drives the domain: a workload.Benchmark or a
	// workload.PhaseSchedule.
	Workload workload.Source
	// Seed overrides the domain's trace seed; 0 derives
	// floorplan.Seed XOR FNV-1a(domain name), giving sibling domains
	// running the same benchmark distinct streams.
	Seed int64
}

// TDP returns the domain's total average power (W).
func (d Domain) TDP() float64 { return d.TDPPerCore * float64(d.Cores) }

// Floorplan is the SoC under study: the shared board supply and off-chip
// network plus the power domains.
type Floorplan struct {
	// Name labels the floorplan in results.
	Name string
	// VSource is the board supply feeding every rail (V).
	VSource float64
	// Network is the shared off-chip PDN (board + package + die). It is
	// read-only during a sweep, so domains evaluate against it in
	// parallel.
	Network *pdn.Network
	// Domains are the power domains, in canonical (enumeration) order.
	Domains []Domain
	// Seed makes workload synthesis reproducible; per-domain seeds derive
	// from it unless a Domain overrides its own.
	Seed int64
}

// Validate checks the floorplan.
func (f *Floorplan) Validate() error {
	if f == nil {
		return fmt.Errorf("soc: nil floorplan")
	}
	if f.VSource <= 0 {
		return fmt.Errorf("soc: VSource must be positive")
	}
	if f.Network == nil {
		return fmt.Errorf("soc: off-chip network is required")
	}
	if len(f.Domains) == 0 {
		return fmt.Errorf("soc: floorplan needs at least one domain")
	}
	seen := make(map[string]bool, len(f.Domains))
	for i, d := range f.Domains {
		if d.Name == "" {
			return fmt.Errorf("soc: domain %d has no name", i)
		}
		if seen[d.Name] {
			return fmt.Errorf("soc: duplicate domain name %q", d.Name)
		}
		seen[d.Name] = true
		if d.Cores < 1 {
			return fmt.Errorf("soc: domain %q needs at least one core", d.Name)
		}
		if d.TDPPerCore <= 0 {
			return fmt.Errorf("soc: domain %q TDPPerCore must be positive", d.Name)
		}
		if d.VNominal <= 0 || d.VNominal >= f.VSource {
			return fmt.Errorf("soc: domain %q VNominal %g outside (0, VSource)", d.Name, d.VNominal)
		}
		if d.GridR < 0 || d.GridL < 0 {
			return fmt.Errorf("soc: domain %q has negative grid impedance", d.Name)
		}
		if d.Workload == nil {
			return fmt.Errorf("soc: domain %q has no workload", d.Name)
		}
		if v, ok := d.Workload.(interface{ Validate() error }); ok {
			if err := v.Validate(); err != nil {
				return fmt.Errorf("soc: domain %q workload: %w", d.Name, err)
			}
		}
	}
	return nil
}

// domainSeed is the default per-domain seed derivation; Domain.Seed
// overrides it.
func domainSeed(base int64, name string) int64 {
	return base ^ int64(workload.FNV1aString(workload.FNVOffset64, name))
}

// system realizes one domain as a pds.System — field-for-field, so a
// one-domain floorplan reproduces the direct pds path bit-identically.
func (f *Floorplan) system(d Domain) *pds.System {
	load := d.Load
	if load.PNominal == 0 {
		load = workload.LoadModel{PNominal: d.TDPPerCore, VNominal: d.VNominal, LeakFraction: 0.25}
	}
	seed := d.Seed
	if seed == 0 {
		seed = domainSeed(f.Seed, d.Name)
	}
	return &pds.System{
		Cores:      d.Cores,
		TDPPerCore: d.TDPPerCore,
		VNominal:   d.VNominal,
		VSource:    f.VSource,
		Load:       load,
		GridR:      d.GridR,
		GridL:      d.GridL,
		Network:    f.Network,
		Seed:       seed,
	}
}

// refTDPW anchors the hybrid sweep's fixed chip-level SC recipe
// (SeriesParallel 3:1, 45 nm deep-trench, 2.4 µF / 4000 S / 400 nF at
// 32-way interleave), sized for a 20 W, ~24 A platform; AutoIVRDesign
// scales its reactive and conductive totals linearly with domain TDP. It
// is not the case study's searched design (experiments' caseIVRDesign,
// SeriesParallel 3:1 at 1.44 µF / 5251 S / 160 nF), which Figs 10–13 use.
const refTDPW = 20.0

// AutoIVRDesign builds a chip-level SC converter for a domain of the given
// TDP and output voltage: the fixed 20 W recipe with CTotal/GTotal/CDecap
// scaled by tdpW/20 W. Sweep gives every domain its own.
func AutoIVRDesign(tdpW, vOut float64) (*sc.Design, error) {
	if tdpW <= 0 {
		return nil, fmt.Errorf("soc: design TDP %g must be positive", tdpW)
	}
	top, err := topology.SeriesParallel(3, 1)
	if err != nil {
		return nil, err
	}
	an, err := top.Analyze()
	if err != nil {
		return nil, err
	}
	scale := tdpW / refTDPW
	return sc.New(sc.Config{
		Analysis:   an,
		Node:       tech.MustLookup("45nm"),
		CapKind:    tech.DeepTrench,
		VIn:        3.3,
		VOut:       vOut,
		CTotal:     2.4e-6 * scale,
		GTotal:     4000 * scale,
		CDecap:     400e-9 * scale,
		Interleave: 32,
		FSwMax:     500e6,
	})
}

// DefaultLDOHeadroomV is the digital-LDO input headroom above the domain's
// operating voltage: low enough that the linear conversion stays
// competitive, high enough that the pass array has authority over load
// steps.
const DefaultLDOHeadroomV = 0.15

// ldoDesignFor sizes a centralized digital LDO for one domain: the pass
// array carries twice the domain's nominal current at the headroom (so
// the 1.25·TDP workload clamp plus schedule scaling stays inside the
// dropout limit), and the output capacitance scales with load current to
// bound the limit-cycle ripple at the 250 MHz controller clock.
func ldoDesignFor(d Domain, headroomV float64) (*ldo.Design, error) {
	iMax := d.TDP() / d.VNominal
	return ldo.New(ldo.Config{
		Node:  tech.MustLookup("45nm"),
		VIn:   d.VNominal + headroomV,
		VOut:  d.VNominal,
		GPass: 2 * iMax / headroomV,
		//lint:ignore unitflow the 80e-9 coefficient carries F/A (output capacitance per ampere of load)
		COut:       80e-9 * iMax,
		FSample:    250e6,
		Interleave: 4,
	})
}

// DefaultFloorplan is a five-domain heterogeneous SoC (~43 W): big and
// little CPU clusters, a phase-scheduled GPU, a memory controller, and an
// NPU-style accelerator, on the case-study off-chip network. It is the
// floorplan /v1/hybrid and the hybrid experiment run when none is given.
func DefaultFloorplan() (*Floorplan, error) {
	net, err := pdn.TypicalOffChip(60e-9, 1.2e-3)
	if err != nil {
		return nil, err
	}
	cfd, err := workload.Get("CFD")
	if err != nil {
		return nil, err
	}
	bfs, err := workload.Get("BFS2")
	if err != nil {
		return nil, err
	}
	mgst, err := workload.Get("MGST")
	if err != nil {
		return nil, err
	}
	hotsp, err := workload.Get("HOTSP")
	if err != nil {
		return nil, err
	}
	// The GPU alternates compute-heavy kernels with memory-bound lulls —
	// the phase boundaries are where hybrid reassignment earns its keep.
	gpuPhases := workload.PhaseSchedule{
		Name: "gpu-phases",
		Phases: []workload.Phase{
			{Benchmark: "KMN", Duration: 4e-6},
			{Benchmark: "CFD", Duration: 3e-6, Scale: 1.1},
			{Benchmark: "BACKP", Duration: 3e-6, Scale: 0.6},
		},
	}
	fl := &Floorplan{
		Name:    "soc-default",
		VSource: 3.3,
		Network: net,
		Seed:    20170618,
		Domains: []Domain{
			{Name: "cpu-big", Cores: 4, TDPPerCore: 4.5, VNominal: 0.9,
				GridR: 3.5e-3, GridL: 50e-12, Workload: cfd},
			{Name: "cpu-little", Cores: 4, TDPPerCore: 1.5, VNominal: 0.8,
				GridR: 4.5e-3, GridL: 60e-12, Workload: bfs},
			{Name: "gpu", Cores: 4, TDPPerCore: 5, VNominal: 0.85,
				GridR: 3.5e-3, GridL: 50e-12, Workload: gpuPhases},
			{Name: "memc", Cores: 2, TDPPerCore: 2, VNominal: 0.85,
				GridR: 5e-3, GridL: 70e-12, Workload: mgst},
			{Name: "npu", Cores: 1, TDPPerCore: 4, VNominal: 0.85,
				GridR: 6e-3, GridL: 80e-12, Workload: hotsp},
		},
	}
	if err := fl.Validate(); err != nil {
		return nil, err
	}
	return fl, nil
}
