package himap

import (
	"context"
	"fmt"
	"time"

	"himap/internal/arch"
	"himap/internal/baseline"
	"himap/internal/diag"
	"himap/internal/exact"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/par"
	"himap/internal/route"
	"himap/internal/systolic"
)

// Options tunes the compilation flow.
type Options struct {
	// InnerBlock is the extent of loop dimensions sequenced purely in
	// time (b3..bl of §V, "a user input to the HiMap algorithm").
	// Default 4.
	InnerBlock int
	// DepthSlack is how many extra sub-CGRA time depths MAP explores
	// beyond the resource minimum (fallbacks with more routing slack).
	// Default 2.
	DepthSlack int
	// MaxSubMaps bounds how many sub-CGRA mappings step 2/3 iterate over.
	// Default 8.
	MaxSubMaps int
	// MaxSchemes bounds how many systolic schemes are tried per sub-CGRA
	// mapping. Default 6.
	MaxSchemes int
	// MaxRouteRounds bounds the negotiated-congestion rounds of step 3.
	// Default 8.
	MaxRouteRounds int
	// ForceScheme pins the space-time mapping (H,S is an input in
	// Algorithm 1; by default it is found by the heuristic search).
	ForceScheme *systolic.Scheme
	// RelayPolicy selects how route pseudo-ops are anchored to resources
	// (see internal/himap/layout.go). The default RelayAuto uses
	// crossbar output registers for cross-PE relays and the memory read
	// port for load-fed relays; RelayRegistersOnly forces every relay
	// through the register file — the ablation showing why the crossbar
	// relays matter for reaching 100% utilization.
	RelayPolicy RelayPolicy
	// Workers bounds the compilation pipeline's parallelism: the systolic
	// (H,S) scheme search is sharded across Workers goroutines, and
	// (sub-mapping, scheme) attempts run speculatively in waves of
	// Workers, always committing to the first attempt (in the sequential
	// ranking order) that succeeds. The emitted mapping is therefore
	// bit-identical for every Workers value; only wall-clock changes.
	// 0 means runtime.GOMAXPROCS(0); 1 executes exactly the historical
	// sequential flow.
	Workers int
	// Tracer receives one span per executed pipeline stage (see
	// internal/diag). nil means no tracing.
	Tracer diag.Tracer
	// Memo is the artifact cache reusing IDFG/sub-mapping/ISDG builds
	// across attempts and compiles. nil means the shared process-wide
	// cache; inject a fresh NewMemo() to isolate (benchmarks, tests).
	Memo *Memo
}

// RelayPolicy selects the relay-pin strategy (ablation knob).
type RelayPolicy uint8

const (
	// RelayAuto: crossbar output-register pins for cross-PE relays,
	// memory-port pins for load-fed relays, registers otherwise.
	RelayAuto RelayPolicy = iota
	// RelayRegistersOnly: every relay pinned to an RF register.
	RelayRegistersOnly
)

func (o Options) withDefaults() Options {
	if o.InnerBlock == 0 {
		o.InnerBlock = 4
	}
	if o.DepthSlack == 0 {
		o.DepthSlack = 2
	}
	if o.MaxSubMaps == 0 {
		o.MaxSubMaps = 8
	}
	if o.MaxSchemes == 0 {
		o.MaxSchemes = 6
	}
	if o.MaxRouteRounds == 0 {
		o.MaxRouteRounds = 8
	}
	if o.Tracer == nil {
		o.Tracer = diag.Nop()
	}
	if o.Memo == nil {
		o.Memo = sharedMemo
	}
	o.Workers = par.Workers(o.Workers)
	return o
}

// Result is a complete HiMap mapping.
type Result struct {
	Kernel *kernel.Kernel
	Fabric arch.Fabric

	Sub     *SubMapping
	Scheme  systolic.Scheme
	Mapping *systolic.Mapping
	Block   []int
	IIB     int

	DFG  *ir.DFG
	ISDG *ir.ISDG
	CP   *ClusterPlace

	UniqueIters int
	// Classes are the unique iteration classes; ByCluster maps each ISDG
	// cluster to its class index (Figure 2's numbered unique iterations).
	Classes   []*UniqueClass
	ByCluster []int
	Config    *arch.Config

	// Utilization U = |V_D| / |V_H^F| (compute nodes over FU slots).
	Utilization float64

	Stats Stats

	// Backend names the registered backend that produced this result
	// ("himap", "conventional", "exact"). The unified request dispatcher
	// stamps it; internal/himap's own CompileRequest leaves it empty.
	Backend string

	// Optimality carries the II bound certificate when the producing
	// backend can prove one (the exact backend always sets it; the
	// heuristic backends leave it nil).
	Optimality *exact.Optimality

	// Conventional is set when the compile was dispatched to the
	// conventional (baseline) mapper through the unified request API; the
	// hierarchical-flow fields (Sub, Scheme, Mapping, DFG, ISDG, CP,
	// Classes, ...) are nil/zero in that case, while the shared fields
	// (Kernel, Fabric, Block, Config, Utilization) are filled from
	// the baseline result.
	Conventional *baseline.Result

	// Exact is set when the compile was dispatched to the exact
	// branch-and-bound mapper, mirroring Conventional: shared fields are
	// filled from the exact result, hierarchical-only fields stay
	// nil/zero.
	Exact *exact.Result
}

// Stats records compilation effort. Per-stage wall times are not
// repeated here: the span stream (Options.Tracer) carries them.
type Stats struct {
	Total         time.Duration
	Attempts      int // (sub-mapping, scheme) pairs tried
	CanonicalNets int
	RouteRounds   int
}

// CompileRequest maps the kernel onto the fabric with the HiMap
// algorithm and returns the first valid mapping, iterating sub-CGRA
// mappings in decreasing utilization (Algorithm 1's outer loop) and
// systolic schemes in increasing cost until routing and replication
// succeed.
//
// The flow is a staged pass pipeline (see pipeline.go): the front stages
// run once, then (sub-mapping, scheme) attempts execute the per-attempt
// stages speculatively in waves of Workers, always committing to the
// first success in sequential ranking order. On failure it returns a
// *CompileError aggregating the lowest-ranked attempt's failure and the
// best-ranked failure per stage — deterministic for every Workers value.
//
// The context is checked at every pipeline stage boundary and between
// speculative waves, so cancellation (or a deadline) aborts a compile
// mid-pipeline with a *CompileError wrapping diag.ErrCanceled — the
// original context error stays in the cause chain for errors.Is.
func CompileRequest(ctx context.Context, k *kernel.Kernel, fab arch.Fabric, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	if err := fab.Validate(); err != nil {
		return nil, err
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	start := time.Now() //lint:ignore determinism wall-clock span timing only; does not influence mapping

	front := newContext(ctx, k, fab, opts)
	if err := frontStages.Run(front); err != nil {
		return nil, newCompileError(k.Name, fab.String(), 0, []error{err})
	}
	atts := front.Attempts

	// Attempts run speculatively in waves of Workers; within a wave the
	// lowest-index success wins. Because every attempt ranked before the
	// winner fails regardless of execution order, the committed mapping
	// and Stats.Attempts are identical to the sequential (Workers=1) flow.
	// Attempt i of a wave routes on slot i's session, created on first use
	// and re-targeted by every later attempt of the slot: one session per
	// slot for the life of this compile, never shared across compiles. The
	// attempt holds it while it runs and hands it back when it fails; one
	// that routed drops it (runRoute), since it is about to win and its
	// session would otherwise stay live through replicate.
	errs := make([]error, len(atts))
	slots := make([]*route.Session, opts.Workers)
	for base := 0; base < len(atts); base += opts.Workers {
		if err := ctx.Err(); err != nil {
			return nil, canceledCompileError(k.Name, fab.String(), len(atts), err)
		}
		end := base + opts.Workers
		if end > len(atts) {
			end = len(atts)
		}
		wave := atts[base:end]
		waveIdx := base/opts.Workers + 1
		results := make([]*Result, len(wave))
		par.ForEach(opts.Workers, len(wave), func(i int) {
			if slots[i] == nil {
				slots[i] = new(route.Session)
			}
			actx := front.forAttempt(wave[i], base+i+1, waveIdx, slots[i])
			slots[i] = nil
			if err := attemptStages.Run(actx); err != nil {
				errs[base+i] = err
				slots[i] = actx.ses // nil if it failed after routing: the slot starts anew
				return
			}
			results[i] = actx.buildResult()
		})
		for i := range wave {
			if results[i] == nil {
				continue
			}
			res := results[i]
			res.Stats.Attempts = base + i + 1
			res.Stats.Total = time.Since(start)
			return res, nil
		}
	}
	// A cancellation mid-search masquerades as "every attempt failed";
	// surface it as such so callers dispatch on ErrCanceled, not on
	// whichever attempt happened to fail first.
	if err := ctx.Err(); err != nil {
		return nil, canceledCompileError(k.Name, fab.String(), len(atts), err)
	}
	return nil, newCompileError(k.Name, fab.String(), len(atts), errs)
}

// candidateSchemes enumerates systolic schemes compatible with the VSA
// shape, ranked by the systolic search.
func candidateSchemes(k *kernel.Kernel, deps []ir.IterVec, vx, vy int, opts Options) []systolic.Scheme {
	if opts.ForceScheme != nil {
		return []systolic.Scheme{*opts.ForceScheme}
	}
	want := 2
	if vy == 1 || k.Dim == 1 {
		want = 1
	}
	probe := k.UniformBlock(3)
	cands := systolic.SearchN(deps, probe, want, opts.Workers)
	var out []systolic.Scheme
	for _, c := range cands {
		if len(out) >= opts.MaxSchemes {
			break
		}
		out = append(out, c.Scheme)
	}
	return out
}

// blockForScheme derives the block sizes: space dimensions take the VSA
// extents (line 6: b1 = c/s1, b2 = c/s2); remaining dimensions take the
// user's inner block, and pinned dimensions keep their pins (a pin below
// MinBlock is rejected by Kernel.Validate before compilation starts).
func blockForScheme(k *kernel.Kernel, sch systolic.Scheme, vx, vy int, opts Options) ([]int, error) {
	block := make([]int, k.Dim)
	for d := 0; d < k.Dim; d++ {
		block[d] = opts.InnerBlock
		if d < len(k.FixedBlock) && k.FixedBlock[d] > 0 {
			block[d] = k.FixedBlock[d]
		}
	}
	ext := []int{vx, vy}
	for i, d := range sch.SpaceDims {
		if d < len(k.FixedBlock) && k.FixedBlock[d] > 0 && k.FixedBlock[d] != ext[i] {
			return nil, diag.Failf(diag.ErrBlockPinConflict,
				"scheme maps pinned dim %d to a VSA axis of extent %d", d, ext[i])
		}
		block[d] = ext[i]
	}
	min := k.MinBlock
	if min == 0 {
		min = 1
	}
	for d, b := range block {
		if b >= min {
			continue
		}
		if d < len(k.FixedBlock) && k.FixedBlock[d] > 0 {
			return nil, diag.Failf(diag.ErrBlockPinConflict,
				"pinned block dim %d = %d below minimum %d", d, b, min)
		}
		return nil, diag.Failf(diag.ErrBlockTooSmall,
			"block dim %d = %d below minimum %d", d, b, min)
	}
	return block, nil
}

// Summary renders a one-line result description.
func (r *Result) Summary() string {
	if r.Conventional != nil {
		return r.Conventional.Summary()
	}
	if r.Exact != nil {
		return r.Exact.Summary()
	}
	return fmt.Sprintf("%s on %s: block %v, sub-CGRA (%d,%d,%d), II_B %d, %d unique iters, U = %.1f%%",
		r.Kernel.Name, r.Fabric, r.Block, r.Sub.S1, r.Sub.S2, r.Sub.Depth, r.IIB,
		r.UniqueIters, r.Utilization*100)
}
