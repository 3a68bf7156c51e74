// Package himap is a from-scratch Go implementation of HiMap — the fast,
// scalable, high-quality CGRA mapping approach of Wijerathne et al.
// (DATE 2021) — together with everything it is evaluated against: the CGRA
// architecture model, a modulo-routing-resource-graph place-and-route
// engine, the systolic space-time transformation machinery, a
// conventional (simulated-annealing) baseline mapper, a cycle-accurate
// CGRA simulator for functional validation, and a performance/power
// model.
//
// Quick start:
//
//	k := himap.KernelGEMM()
//	res, err := himap.CompileRequest(ctx, himap.Request{
//		Kernel: k,
//		Fabric: himap.Fabric{CGRA: himap.DefaultCGRA(8, 8)},
//	})
//	if err != nil { ... }
//	fmt.Println(res.Summary())                      // mapping statistics
//	err = himap.Validate(res, 3, 42)                // cycle-accurate check
//	fmt.Println(himap.RenderSchedule(res.Config))   // space-time view
//
// The deeper layers live in internal/ packages and are re-exported here
// where a downstream user needs them; DESIGN.md documents the system
// inventory and EXPERIMENTS.md the reproduction of every table and figure
// of the paper.
package himap

import (
	"context"
	"io"

	"himap/internal/arch"
	"himap/internal/baseline"
	"himap/internal/diag"
	"himap/internal/exact"
	core "himap/internal/himap"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/power"
	"himap/internal/sim"
	"himap/internal/systolic"
	"himap/internal/viz"
)

// Re-exported core types. The aliases keep one canonical definition while
// letting applications import only this package.
type (
	// CGRA describes a target array (size, register file, ports, memories).
	CGRA = arch.CGRA
	// Fabric is the full architecture model: the PE array (CGRA) plus the
	// interconnect topology and the per-PE capability layout. The zero
	// Topology/Mem values reproduce the classic model (mesh links, every
	// PE memory-capable), so Fabric{CGRA: cg} is a drop-in upgrade.
	Fabric = arch.Fabric
	// Topology selects the fabric's link provider (mesh, torus, mesh+diag).
	Topology = arch.Topology
	// MemPolicy selects which PEs carry a memory port.
	MemPolicy = arch.MemPolicy
	// BandwidthClass selects the interconnect bandwidth model (link
	// lanes, shared egress bus, narrowed register-file ports).
	BandwidthClass = arch.BandwidthClass
	// CostClass selects the silicon cost corner priced by the power
	// model; it never changes routing.
	CostClass = arch.CostClass
	// PECaps is the capability class of one PE.
	PECaps = arch.PECaps
	// Config is a complete CGRA mapping: per-PE repeating instruction
	// streams plus memory-access correlation metadata.
	Config = arch.Config
	// Kernel is a loop-kernel specification (see internal/kernel for the
	// DSL used to define new kernels).
	Kernel = kernel.Kernel
	// Options tunes the HiMap compilation flow.
	Options = core.Options
	// BaselineOptions tunes the conventional mapper.
	BaselineOptions = baseline.Options
	// BaselineResult is a completed conventional mapping.
	BaselineResult = baseline.Result
	// ExactOptions tunes the exact branch-and-bound mapper.
	ExactOptions = exact.Options
	// ExactResult is a completed exact mapping with its certificate.
	ExactResult = exact.Result
	// Optimality is the certificate block of an exact mapping: whether
	// the II was proved minimal, the best lower bound, and the kind of
	// proof backing it.
	Optimality = exact.Optimality
	// Certificate names the kind of optimality proof.
	Certificate = exact.Certificate
	// PowerModel converts configurations to MOPS and mW.
	PowerModel = power.Model
	// Scheme is a block-size-independent systolic space-time template.
	Scheme = systolic.Scheme
)

// Diagnostics: the typed failure taxonomy and tracing contract shared by
// every backend (see internal/diag).
type (
	// CompileError is the structured failure of a whole compilation: the
	// deterministic lowest-ranked attempt's error plus the best-ranked
	// failure per pipeline stage, with the true attempt count.
	CompileError = core.CompileError
	// StageError pins one failure class to a pipeline stage, kernel,
	// CGRA, and attempt; recover it with errors.As.
	StageError = diag.StageError
	// Tracer receives one TraceSpan per executed pipeline stage. Set
	// Options.Tracer (or BaselineOptions.Tracer) to observe a compile.
	Tracer = diag.Tracer
	// TraceSpan is one completed stage execution: stage name, attempt and
	// launch generation, wall time, counters, and the failure (if any).
	TraceSpan = diag.Span
	// Memo is the compilation artifact cache (generic IDFG, sub-mapping
	// lists, unrolled DFG/ISDG), content-keyed by kernel specification.
	// Compiles share a process-wide cache unless Options.Memo injects one.
	// A Memo is bounded: past a fixed weight of cached artifacts it drops
	// them all and rebuilds on demand, which never changes a mapping.
	Memo = core.Memo
)

// Failure classes of the compilation pipelines. Every compile failure
// wraps the class that caused it, so callers dispatch with errors.Is
// regardless of stage, mapper, or Workers value:
//
//	fab := himap.DefaultFabric(8, 8)
//	fab.Mem = himap.MemBoundary // GEMM congests in every attempt here
//	_, err := himap.CompileRequest(ctx, himap.Request{Kernel: himap.KernelGEMM(), Fabric: fab})
//	if errors.Is(err, himap.ErrRouteCongested) { ... }
var (
	// ErrNoSubMapping: step 1 found no valid IDFG → sub-CGRA mapping.
	ErrNoSubMapping = diag.ErrNoSubMapping
	// ErrSchemeInfeasible: no systolic space-time scheme satisfies the
	// dependences and the VSA shape.
	ErrSchemeInfeasible = diag.ErrSchemeInfeasible
	// ErrRouteCongested: negotiated-congestion routing failed within the
	// round budget.
	ErrRouteCongested = diag.ErrRouteCongested
	// ErrBlockPinConflict: a pinned block dimension (Kernel.FixedBlock)
	// contradicts MinBlock or the scheme's VSA axis extent.
	ErrBlockPinConflict = diag.ErrBlockPinConflict
	// ErrBlockTooSmall: a derived block dimension fell below MinBlock.
	ErrBlockTooSmall = diag.ErrBlockTooSmall
	// ErrPlacementInfeasible: placement found no zero-violation solution.
	ErrPlacementInfeasible = diag.ErrPlacementInfeasible
	// ErrReplicaConflict: replication collided while stamping a canonical
	// route onto a class member.
	ErrReplicaConflict = diag.ErrReplicaConflict
	// ErrConfigInvalid: the emitted configuration failed final validation.
	ErrConfigInvalid = diag.ErrConfigInvalid
	// ErrMemPortInfeasible: the kernel demands more memory ports than the
	// fabric's memory-capable PEs provide within any candidate sub-CGRA.
	ErrMemPortInfeasible = diag.ErrMemPortInfeasible
	// ErrBandwidthInfeasible: the placed schedule provably demands more
	// same-cycle link departures than the fabric's bandwidth class
	// provides (raised before congestion negotiation is attempted).
	ErrBandwidthInfeasible = diag.ErrBandwidthInfeasible
	// ErrInvalidRequest: the request was malformed before any mapping was
	// attempted (nil kernel, invalid fabric) — a caller bug, not a
	// mapping failure.
	ErrInvalidRequest = diag.ErrInvalidRequest
	// ErrTooLarge: a flat backend refused a block whose DFG is past its
	// node wall (BaselineOptions.MaxNodes, ExactOptions.MaxNodes).
	ErrTooLarge = diag.ErrTooLarge
	// ErrProvedInfeasible: the exact mapper exhaustively refuted every II
	// in its search range within the schedule horizon — the instance
	// (kernel × block × fabric) needs a bigger fabric or a smaller block.
	ErrProvedInfeasible = diag.ErrProvedInfeasible
	// ErrCanceled: the compile's context was canceled or its deadline
	// expired before a mapping was committed. The context is every
	// backend's only time bound: pass context.WithTimeout for a budget.
	// The mappers check it at stage boundaries (HiMap additionally before
	// each attempt is claimed, the conventional mapper between II
	// attempts and every 4096 annealing moves, the exact mapper inside
	// its search, whose error also names the proved II lower bound); the
	// original context error stays in the cause chain, so
	// errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) also hold.
	ErrCanceled = diag.ErrCanceled
)

// Fabric topologies, memory-port policies, bandwidth classes, and cost
// classes (see arch.Topology, arch.MemPolicy, arch.BandwidthClass, and
// arch.CostClass for full documentation).
const (
	TopoMesh     = arch.TopoMesh
	TopoTorus    = arch.TopoTorus
	TopoMeshDiag = arch.TopoMeshDiag
	MemAll       = arch.MemAll
	MemBoundary  = arch.MemBoundary
	MemNone      = arch.MemNone
	BWUnit       = arch.BWUnit
	BWDouble     = arch.BWDouble
	BWBus        = arch.BWBus
	BWNarrowRF   = arch.BWNarrowRF
	CostBalanced = arch.CostBalanced
	CostLowPower = arch.CostLowPower
	CostHighPerf = arch.CostHighPerf
)

// Optimality certificate kinds (see exact.Certificate).
const (
	// CertNone: no proof — the II is an upper bound only.
	CertNone = exact.CertNone
	// CertResMII: the mapping's II equals the static resource/recurrence
	// lower bound, so it is minimal regardless of schedule horizon.
	CertResMII = exact.CertResMII
	// CertExhaustive: every smaller II was exhaustively refuted within
	// the search horizon.
	CertExhaustive = exact.CertExhaustive
)

// ExactLowerBound returns the static II lower bound (max of resource
// MII and recurrence MII) the exact mapper deepens from — usable on its
// own to sanity-check any mapper's II without running a search.
func ExactLowerBound(k *Kernel, fab Fabric, block []int) (int, error) {
	return exact.LowerBound(k, fab, block)
}

// ParseTopology maps a CLI name (mesh|torus|diag) to a Topology.
func ParseTopology(s string) (Topology, error) { return arch.ParseTopology(s) }

// ParseMemPolicy maps a CLI name (all|boundary|none) to a MemPolicy.
func ParseMemPolicy(s string) (MemPolicy, error) { return arch.ParseMemPolicy(s) }

// ParseBandwidth maps a CLI name (unit|double|bus|narrow-rf) to a
// BandwidthClass; the empty string selects BWUnit.
func ParseBandwidth(s string) (BandwidthClass, error) { return arch.ParseBandwidth(s) }

// ParseCostClass maps a CLI name (balanced|low-power|high-perf) to a
// CostClass; the empty string selects CostBalanced.
func ParseCostClass(s string) (CostClass, error) { return arch.ParseCostClass(s) }

// TopologyNames returns the accepted -topology CLI names, "|"-joined.
func TopologyNames() string { return arch.TopologyNames() }

// MemPolicyNames returns the accepted -mem-pes CLI names, "|"-joined.
func MemPolicyNames() string { return arch.MemPolicyNames() }

// BandwidthNames returns the accepted -bandwidth CLI names, "|"-joined.
func BandwidthNames() string { return arch.BandwidthNames() }

// CostClassNames returns the accepted -cost CLI names, "|"-joined.
func CostClassNames() string { return arch.CostClassNames() }

// ExploreFabrics returns the deterministic design-space candidate set a
// rows×cols array spans: the default fabric plus topology, memory,
// bandwidth, and cost-class variants (the set behind the experiments
// explore sweep).
func ExploreFabrics(rows, cols int) []Fabric { return arch.ExploreFabrics(rows, cols) }

// DefaultFabric returns the paper's evaluation architecture as a fabric:
// mesh links, every PE memory-capable.
func DefaultFabric(rows, cols int) Fabric { return arch.DefaultFabric(rows, cols) }

// NewTextTracer returns a Tracer printing one human-readable line per
// stage span to w — the tracer behind cmd/himap's -trace flag.
func NewTextTracer(w io.Writer) Tracer { return diag.NewTextTracer(w) }

// TraceCollector accumulates spans in memory for programmatic inspection
// (per-stage wall-time breakdowns, failure analysis).
type TraceCollector = diag.Collector

// NewTraceCollector returns an empty in-memory span collector.
func NewTraceCollector() *TraceCollector { return diag.NewCollector() }

// NewMemo returns a fresh, empty artifact cache for Options.Memo —
// useful to isolate compiles or to measure cold-path cost.
func NewMemo() *Memo { return core.NewMemo() }

// DefaultCGRA returns the paper's evaluation architecture at the given
// array size: per PE an ALU, a 4-register file (2R/2W), a crossbar, a
// 32-entry configuration memory, and a 64-word data memory, at 510 MHz.
func DefaultCGRA(rows, cols int) CGRA { return arch.Default(rows, cols) }

// Validate executes nblocks pipelined block instances of the mapping on
// the cycle-accurate simulator and compares every block's outputs against
// the kernel's golden executor.
func Validate(res *Result, nblocks int, seed int64) error {
	return sim.Validate(res.Config, res.Kernel, res.Block, nblocks, seed)
}

// ValidateConfig is Validate for any configuration (e.g. a baseline
// mapping).
func ValidateConfig(cfg *Config, k *Kernel, block []int, nblocks int, seed int64) error {
	return sim.Validate(cfg, k, block, nblocks, seed)
}

// DefaultPowerModel returns the 40 nm / 510 MHz power coefficients used
// by the evaluation.
func DefaultPowerModel() PowerModel { return power.Default40nm() }

// PowerModelFor returns the power model of a fabric: the evaluation's
// balanced 40 nm point scaled by the fabric's cost corner and bandwidth
// class. The default fabric maps to DefaultPowerModel exactly.
func PowerModelFor(fab Fabric) PowerModel { return power.ModelFor(fab) }

// RenderSchedule renders the space-time schedule grid of a configuration.
func RenderSchedule(cfg *Config) string { return viz.ScheduleGrid(cfg) }

// RenderPEProgram lists one PE's instruction stream.
func RenderPEProgram(cfg *Config, r, c int) string { return viz.PEProgram(cfg, r, c) }

// RenderUtilization renders the per-PE FU utilization grid.
func RenderUtilization(cfg *Config) string { return viz.UtilizationMap(cfg) }

// Evaluation kernels of the paper (Table II).
func KernelADI() *Kernel  { return kernel.ADI() }
func KernelATAX() *Kernel { return kernel.ATAX() }
func KernelBICG() *Kernel { return kernel.BICG() }
func KernelMVT() *Kernel  { return kernel.MVT() }
func KernelGEMM() *Kernel { return kernel.GEMM() }
func KernelSYRK() *Kernel { return kernel.SYRK() }
func KernelFW() *Kernel   { return kernel.FW() }
func KernelTTM() *Kernel  { return kernel.TTM() }

// KernelConv2D returns the 3×3-window convolution extension kernel.
func KernelConv2D() *Kernel { return kernel.Conv2D() }

// EvaluationKernels returns the eight Table-II kernels in paper order.
func EvaluationKernels() []*Kernel { return kernel.Evaluation() }

// KernelByName looks a kernel up by its Table-II name (plus CONV2D).
func KernelByName(name string) (*Kernel, error) { return kernel.ByName(name) }

// Kernel-specification DSL re-exports, so downstream users can define new
// kernels against the public API alone (see examples/custom-kernel).
type (
	// BodyOp is one loop-body operation of a kernel specification.
	BodyOp = kernel.BodyOp
	// Input is a guarded operand-source selection list.
	Input = kernel.Input
	// Case pairs a guard predicate with an operand source.
	Case = kernel.Case
	// Source describes an operand origin (dependence, memory, constant).
	Source = kernel.Source
	// StoreRule writes an op's result to a tensor under a guard.
	StoreRule = kernel.StoreRule
	// TensorSpec declares a kernel tensor.
	TensorSpec = kernel.TensorSpec
	// AffineMap maps iteration vectors to tensor indices.
	AffineMap = kernel.AffineMap
	// Pred is a conjunction of iteration-vector conditions.
	Pred = kernel.Pred
	// Tensor is a dense multi-dimensional integer array.
	Tensor = kernel.Tensor
)

// DSL constructors (see internal/kernel for full documentation).
var (
	AM       = kernel.AM
	In       = kernel.In
	Fixed    = kernel.Fixed
	Dep      = kernel.Dep
	Same     = kernel.Same
	Mem      = kernel.Mem
	ConstSrc = kernel.Const
	First    = kernel.First
	Last     = kernel.Last
	NotFirst = kernel.NotFirst
	EqDims   = kernel.EqDims
	And      = kernel.And
	Always   = kernel.Always
)

// NewTensor allocates a zeroed tensor.
func NewTensor(dims ...int) *Tensor { return kernel.NewTensor(dims...) }

// Bitstream is a binary configuration-memory image (deduplicated words
// plus the per-PE schedule ROM).
type Bitstream = arch.Bitstream

// EncodeBitstream packs a configuration into its configuration-memory
// image, enforcing the per-PE depth bound.
func EncodeBitstream(cfg *Config) (*Bitstream, error) { return arch.Encode(cfg) }

// SaveConfig serializes a mapping (architecture, schedule, memory
// correlation metadata) as JSON.
func SaveConfig(cfg *Config, w io.Writer) error { return cfg.WriteJSON(w) }

// LoadConfig deserializes and validates a mapping saved by SaveConfig.
func LoadConfig(r io.Reader) (*Config, error) { return arch.ReadJSON(r) }

// Extension kernels beyond the Table-II evaluation set.
func KernelNW() *Kernel      { return kernel.NW() }
func KernelDOITGEN() *Kernel { return kernel.DOITGEN() }
func KernelDOTPROD() *Kernel { return kernel.DOTPROD() }
func KernelRELU() *Kernel    { return kernel.RELU() }

// CompileAuto applies the paper's Table-I triage (§VI, benchmark
// selection): multi-dimensional kernels with inter-iteration dependencies
// go through HiMap's virtual systolic mapping; one-dimensional or
// dependence-free kernels gain nothing from it and are modulo-scheduled
// by the conventional mapper instead ("we can apply existing software
// pipelining techniques"). Result.Backend names the flow that ran.
func CompileAuto(k *Kernel, cg CGRA, opts Options) (*Result, error) {
	if k.Dim > 1 && k.HasInterIterationDeps() {
		return CompileRequest(context.Background(),
			Request{Kernel: k, Fabric: Fabric{CGRA: cg}, Options: opts})
	}
	// Pick the largest block the conventional mapper handles comfortably
	// (small: simulated annealing degrades well before the 400-node wall).
	b := baseline.LargestFeasibleBlock(k, 60, 16)
	return CompileRequest(context.Background(), Request{
		Kernel: k, Fabric: Fabric{CGRA: cg}, Mapper: MapperConventional,
		Block: k.UniformBlock(b), Baseline: BaselineOptions{Seed: 1},
	})
}

// OpKind identifies a loop-body operation kind.
type OpKind = ir.OpKind

// Operation kinds usable in kernel specifications. Compute kinds occupy
// an FU; OpRoute is pure systolic data movement realized on routing
// resources.
const (
	OpAdd   = ir.OpAdd
	OpSub   = ir.OpSub
	OpMul   = ir.OpMul
	OpDiv   = ir.OpDiv
	OpMin   = ir.OpMin
	OpMax   = ir.OpMax
	OpAnd   = ir.OpAnd
	OpOr    = ir.OpOr
	OpXor   = ir.OpXor
	OpShl   = ir.OpShl
	OpShr   = ir.OpShr
	OpSel   = ir.OpSel
	OpRoute = ir.OpRoute
)
