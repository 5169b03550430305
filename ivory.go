// Package ivory is a high-level design space exploration tool for
// integrated voltage regulators (IVRs), reproducing the system described in
// "Ivory: Early-Stage Design Space Exploration Tool for Integrated Voltage
// Regulators" (DAC 2017).
//
// Ivory models the three mainstream IVR topologies — switched-capacitor
// converters (Seeman charge-multiplier methodology), buck converters with
// frequency-dependent integrated inductors, and digital low-dropout linear
// regulators — on top of a built-in technology database spanning 130 nm to
// 10 nm. It evaluates conversion efficiency, static ripple, and die area;
// derives full dynamic voltage waveforms under load transients and fast
// DVFS with a combined cycle-by-cycle + in-cycle model; and explores the
// design space (topology x ratio x sizing x interleaving x distribution)
// under an area budget. An MNA-based transient circuit simulator is
// included as the validation baseline.
//
// Quick start:
//
//	spec := ivory.Spec{NodeName: "45nm", VIn: 3.3, VOut: 1.0, IMax: 6, AreaMax: 6e-6}
//	res, err := ivory.Explore(spec)
//	// res.Best.Metrics.Efficiency, res.Best.Metrics.FSw, ...
//
// The package is a façade: the implementation lives in the internal
// packages (topology, sc, buck, ldo, pdn, spice, dynamic, workload, pds,
// core), re-exported here as type aliases so downstream users need a single
// import.
package ivory

import (
	"io"

	"ivory/internal/buck"
	"ivory/internal/core"
	"ivory/internal/dynamic"
	"ivory/internal/grid"
	"ivory/internal/ivr"
	"ivory/internal/ldo"
	"ivory/internal/parallel"
	"ivory/internal/pdn"
	"ivory/internal/pds"
	"ivory/internal/sc"
	"ivory/internal/server"
	"ivory/internal/spice"
	"ivory/internal/tech"
	"ivory/internal/topology"
	"ivory/internal/workload"
)

// Design-space exploration (the paper's design optimization module).
type (
	// Spec is the user's high-level input (paper Table 1).
	Spec = core.Spec
	// Objective selects the optimization target.
	Objective = core.Objective
	// Kind identifies a converter family.
	Kind = core.Kind
	// Candidate is one evaluated design point.
	Candidate = core.Candidate
	// ExplorationResult holds ranked candidates.
	ExplorationResult = core.Result
	// DistributionTable is the paper's Table 2 output.
	DistributionTable = core.DistributionTable
	// ExploreStats is the run-telemetry record of one exploration: job and
	// per-family accept/reject counts, topology-cache counters, wall time,
	// and throughput. A snapshot is handed to
	// Spec.Progress after every completed job and the final record is on
	// ExplorationResult.Stats.
	ExploreStats = core.Stats
	// ExploreKindStats is one converter family's accept/reject tally.
	ExploreKindStats = core.KindStats
	// SearchStrategy selects how Explore walks the configuration lattice:
	// the exhaustive reference sweep, or the adaptive mode that skips the
	// SC topologies whose efficiency ceiling cannot place in the top three
	// without sizing them (Spec.Search).
	SearchStrategy = core.SearchStrategy
	// PanicError wraps a panic that escaped an exploration job; it is
	// re-raised on the caller's goroutine tagged with the job index.
	PanicError = parallel.PanicError
)

// Objective and kind constants.
const (
	MaxEfficiency = core.MaxEfficiency
	MinArea       = core.MinArea
	MinNoise      = core.MinNoise

	KindSC   = core.KindSC
	KindBuck = core.KindBuck
	KindLDO  = core.KindLDO

	SearchExhaustive = core.SearchExhaustive
	SearchAdaptive   = core.SearchAdaptive
)

// Explore runs the design optimizer over the spec.
func Explore(spec Spec) (*ExplorationResult, error) { return core.Explore(spec) }

// ParseObjective maps "eff"/"area"/"noise" (or the canonical long forms)
// to an Objective.
func ParseObjective(s string) (Objective, error) { return core.ParseObjective(s) }

// ParseKind maps "SC"/"buck"/"LDO" (case-insensitive) to a Kind.
func ParseKind(s string) (Kind, error) { return core.ParseKind(s) }

// ParseSearch maps "exhaustive"/"adaptive" (and the aliases "full" and
// "pruned"; "" selects exhaustive) to a SearchStrategy.
func ParseSearch(s string) (SearchStrategy, error) { return core.ParseSearch(s) }

// Serving: the DTO schema and server core behind cmd/ivoryd. The same
// types back `ivory explore -json`, so CLI output and service responses
// are byte-compatible.
type (
	// SpecDTO is the JSON wire form of Spec (engine inputs only).
	SpecDTO = server.SpecDTO
	// ExploreRequest is the body of POST /v1/explore.
	ExploreRequest = server.ExploreRequest
	// ExploreResponse is a completed exploration in wire form.
	ExploreResponse = server.ExploreResponse
	// ExploreCandidate is one ranked design point in wire form.
	ExploreCandidate = server.CandidateDTO
	// TransientRequest is the body of POST /v1/transient.
	TransientRequest = server.TransientRequest
	// TransientResponse is a completed transient noise sweep in wire form.
	TransientResponse = server.TransientResponse
	// Server is the ivoryd serving core (queue, cache, metrics, drain).
	Server = server.Server
	// ServerConfig sizes a Server; the zero value uses production defaults.
	ServerConfig = server.Config
)

// NewServer builds the ivoryd serving core.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// NewExploreResponse converts an exploration result — complete, or the
// ranked partial of a cancelled run — into the shared wire form. runErr is
// the error Explore returned alongside a partial result (nil when the run
// completed).
func NewExploreResponse(res *ExplorationResult, runErr error) *ExploreResponse {
	return server.ExploreResponseFromResult(res, runErr)
}

// SpecHash returns the canonical cache/coalescing key of a normalized
// spec (see Spec.Normalized).
func SpecHash(spec Spec) string { return server.SpecHash(spec) }

// ExploreDistribution evaluates every family at each distribution count.
func ExploreDistribution(spec Spec, counts []int) (*DistributionTable, error) {
	return core.ExploreDistribution(spec, counts)
}

// CaseStudySpec returns the GPU case-study input of the paper's Table 1.
func CaseStudySpec(node string) Spec { return core.CaseStudySpec(node) }

// Technology database.
type (
	// TechNode is one technology-node entry.
	TechNode = tech.Node
	// SwitchDevice is a power-switch option.
	SwitchDevice = tech.SwitchDevice
	// CapacitorOption is an on-chip capacitor flavour.
	CapacitorOption = tech.CapacitorOption
	// InductorOption is an inductor implementation.
	InductorOption = tech.InductorOption
)

// Capacitor and inductor kind constants.
const (
	MOSCap             = tech.MOSCap
	MIMCap             = tech.MIMCap
	DeepTrench         = tech.DeepTrench
	SurfaceMount       = tech.SurfaceMount
	IntegratedThinFilm = tech.IntegratedThinFilm
)

// LookupNode returns a technology node by name (e.g. "45nm").
func LookupNode(name string) (*TechNode, error) { return tech.Lookup(name) }

// TechNodes lists the registered node names.
func TechNodes() []string { return tech.Nodes() }

// AddTechNode registers a user-supplied node.
func AddTechNode(n *TechNode) error { return tech.AddNode(n) }

// Topologies and charge-multiplier analysis.
type (
	// Topology is a two-phase SC netlist.
	Topology = topology.Topology
	// TopologyAnalysis holds the ratio and charge-multiplier vectors.
	TopologyAnalysis = topology.Analysis
	// TopologyBuilder constructs custom topologies.
	TopologyBuilder = topology.Builder
)

// SeriesParallel returns the series-parallel converter with ratio q/p.
func SeriesParallel(p, q int) (*Topology, error) { return topology.SeriesParallel(p, q) }

// Ladder returns the symmetric ladder converter with ratio q/p.
func Ladder(p, q int) (*Topology, error) { return topology.Ladder(p, q) }

// Dickson returns the Dickson charge-pump p:1 step-down.
func Dickson(p int) (*Topology, error) { return topology.Dickson(p) }

// Doubler returns a cascade of k 2:1 stages.
func Doubler(k int) (*Topology, error) { return topology.Doubler(k) }

// Fibonacci returns the k-stage Fibonacci converter.
func Fibonacci(k int) (*Topology, error) { return topology.Fibonacci(k) }

// CustomTopology wraps user-supplied charge-multiplier vectors.
func CustomTopology(name string, ratio float64, capMult, switchMult []float64) (*TopologyAnalysis, error) {
	return topology.Custom(name, ratio, capMult, switchMult)
}

// NewTopologyBuilder starts a custom netlist.
func NewTopologyBuilder(name string) *TopologyBuilder { return topology.NewBuilder(name) }

// Reserved topology nodes and the two switching phases, for custom
// netlists built with TopologyBuilder.
const (
	GndNode  = topology.Gnd
	VinNode  = topology.Vin
	VoutNode = topology.Vout
	Phi1     = topology.Phi1
	Phi2     = topology.Phi2
)

// Static converter models.
type (
	// Metrics is the static evaluation record shared by all families.
	Metrics = ivr.Metrics
	// LossBreakdown itemizes converter losses.
	LossBreakdown = ivr.LossBreakdown
	// SCConfig parameterizes a switched-capacitor design.
	SCConfig = sc.Config
	// SCDesign is a validated switched-capacitor converter.
	SCDesign = sc.Design
	// BuckConfig parameterizes a buck design.
	BuckConfig = buck.Config
	// BuckDesign is a validated buck converter.
	BuckDesign = buck.Design
	// LDOConfig parameterizes a digital LDO.
	LDOConfig = ldo.Config
	// LDODesign is a validated LDO.
	LDODesign = ldo.Design
)

// NewSC validates and builds a switched-capacitor design.
func NewSC(cfg SCConfig) (*SCDesign, error) { return sc.New(cfg) }

// ReconfigurableSC is a gear-shifting switched-capacitor converter.
type ReconfigurableSC = sc.Reconfigurable

// NewReconfigurableSC builds a multi-ratio converter from a shared fabric
// configuration and one topology analysis per gear.
func NewReconfigurableSC(base SCConfig, gears []*TopologyAnalysis) (*ReconfigurableSC, error) {
	return sc.NewReconfigurable(base, gears)
}

// CascadeTopologies composes two analyzed stages into a multi-stage
// analysis (A's output feeds B's input).
func CascadeTopologies(name string, a, b *TopologyAnalysis) (*TopologyAnalysis, error) {
	return topology.Cascade(name, a, b)
}

// NewBuck validates and builds a buck design.
func NewBuck(cfg BuckConfig) (*BuckDesign, error) { return buck.New(cfg) }

// NewLDO validates and builds a digital-LDO design.
func NewLDO(cfg LDOConfig) (*LDODesign, error) { return ldo.New(cfg) }

// Dynamic (transient) models.
type (
	// Signal is a time-varying input.
	Signal = dynamic.Signal
	// DynamicTrace is a simulated waveform.
	DynamicTrace = dynamic.Trace
	// SCSimulator runs the combined cycle-by-cycle + in-cycle SC model.
	SCSimulator = dynamic.SCSimulator
	// BuckSimulator runs the interleaved buck dynamic model.
	BuckSimulator = dynamic.BuckSimulator
	// LDOSimulator runs the digital-LDO dynamic model.
	LDOSimulator = dynamic.LDOSimulator
	// FreqModel is the interference frequency-response model (Eqs. 3-5).
	FreqModel = dynamic.FreqModel
)

// ConstantSignal returns a constant signal.
func ConstantSignal(v float64) Signal { return dynamic.Constant(v) }

// StepSignal returns a step at tStep between two unit-agnostic levels
// (amperes for load steps, volts for reference steps).
func StepSignal(from, to, tStep float64) Signal { return dynamic.Step(from, to, tStep) }

// SampledSignal wraps uniformly sampled data.
func SampledSignal(data []float64, dt float64) Signal { return dynamic.Sampled(data, dt) }

// SCDynamicParams maps a static SC design to its dynamic model, clocking
// the feedback for the given worst-case load.
func SCDynamicParams(d *SCDesign, iMax float64) (dynamic.SCParams, error) {
	return dynamic.SCFromDesignAtLoad(d, iMax)
}

// PDN, workloads, and system composition.
type (
	// PDNStage is one ladder segment of the power delivery network.
	PDNStage = pdn.Stage
	// PDNNetwork is a source-to-load PDN ladder.
	PDNNetwork = pdn.Network
	// Benchmark is a synthetic GPU workload.
	Benchmark = workload.Benchmark
	// LoadModel converts power demand into supply current.
	LoadModel = workload.LoadModel
	// PDSSystem is the manycore platform description.
	PDSSystem = pds.System
	// NoiseResult is one configuration x benchmark noise simulation.
	NoiseResult = pds.NoiseResult
	// PowerBreakdown itemizes source-to-core power (Fig. 13).
	PowerBreakdown = pds.Breakdown
	// Delivery selects a delivery style: the zero value is the off-chip
	// VRM, IVRs with an SC design a centralized or distributed IVR, an
	// LDO design with its headroom a digital LDO.
	Delivery = pds.Delivery
	// SimOptions controls one PDSSystem.Simulate call.
	SimOptions = pds.SimOptions
)

// NewPDN builds a validated PDN ladder.
func NewPDN(stages ...PDNStage) (*PDNNetwork, error) { return pdn.New(stages...) }

// TypicalOffChipPDN returns the case study's three-level network.
func TypicalOffChipPDN(dieDecap, gridR float64) (*PDNNetwork, error) {
	return pdn.TypicalOffChip(dieDecap, gridR)
}

// Benchmarks lists the built-in workload names.
func Benchmarks() []string { return workload.Names() }

// GetBenchmark returns a built-in workload by name.
func GetBenchmark(name string) (Benchmark, error) { return workload.Get(name) }

// Circuit-level simulation (the validation baseline).
type (
	// Circuit is an MNA netlist.
	Circuit = spice.Circuit
	// TranResult is a transient simulation result.
	TranResult = spice.Result
	// Waveform is a source driving function.
	Waveform = spice.Waveform
	// SCNetlistOptions parameterizes an SC converter testbench.
	SCNetlistOptions = spice.SCOptions
	// BuckNetlistOptions parameterizes a buck testbench.
	BuckNetlistOptions = spice.BuckOptions
)

// BuildBuckNetlist constructs a synchronous-buck testbench.
func BuildBuckNetlist(opt BuckNetlistOptions) (*Circuit, error) { return spice.BuildBuck(opt) }

// ParseNetlist reads a SPICE-style text netlist into a Circuit.
func ParseNetlist(r io.Reader) (*Circuit, error) { return spice.ParseNetlist(r) }

// ParseSpiceValue parses a number with SPICE engineering suffixes
// ("10n", "4.7k", "2meg").
func ParseSpiceValue(s string) (float64, error) { return spice.ParseValue(s) }

// LoadNodeJSON parses a technology-node definition; register it with
// AddTechNode to make it available to Lookup/Explore.
func LoadNodeJSON(r io.Reader) (*TechNode, error) { return tech.LoadJSON(r) }

// On-chip grid floorplanning.
type (
	// GridMesh is a 2-D resistive power-grid mesh.
	GridMesh = grid.Mesh
	// GridPoint is a tile coordinate on a mesh.
	GridPoint = grid.Point
	// GridSolver is a per-tap-set solving context: the mesh Laplacian is
	// assembled and factored once by banded Cholesky (GridMesh.NewSolver)
	// and reused across EffectiveResistance / WorstCaseResistanceContext
	// queries.
	GridSolver = grid.Solver
)

// NewGridMesh builds a W x H power-grid mesh with the given per-link
// resistance. The mesh must fit the solver's band factor: at most 2^16
// tiles and W·H·(min(W,H)+1) <= 2^21 entries, so squares up to 127x127.
func NewGridMesh(w, h int, rTile float64) (*GridMesh, error) { return grid.NewMesh(w, h, rTile) }

// NewCircuit returns an empty netlist.
func NewCircuit() *Circuit { return spice.NewCircuit() }

// BuildSCNetlist converts a topology + element values into a switch-level
// testbench.
func BuildSCNetlist(top *Topology, an *TopologyAnalysis, caps, rons []float64, opt spice.SCOptions) (*Circuit, error) {
	return spice.BuildSC(top, an, caps, rons, opt)
}
