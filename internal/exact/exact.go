// Package exact implements an exact CGRA mapper: iterative deepening on
// the initiation interval from the static ResMII/RecMII lower bound, with
// a conflict-directed branch-and-bound search over op → (PE, cycle)
// placements of the block DFG at each candidate II. Where the HiMap
// pipeline and the SA baseline are heuristics, this backend either finds
// a mapping or *proves* there is none at a given II, so its results carry
// optimality certificates and it serves as a quality oracle for the
// other two backends on small kernels (ROADMAP item 1; cf. SAT-MapIt and
// SAT-based exact modulo scheduling).
//
// # Soundness
//
// The search space at II = k is a relaxation of the full mapping problem:
// decision variables are op placements, and the propagators enforce only
// conditions that every routable mapping necessarily satisfies —
//
//   - slot exclusivity: FU / memory-read / memory-write occupancy of one
//     PE at one wrapped cycle is bounded by mrrg.Graph.Capacity (the
//     capacities the PathFinder router negotiates against);
//   - timing: a consumer at hop distance h from its producer fires at
//     least max(1, h) cycles later (h for a store's write port, which is
//     reachable in the arrival cycle), with arch.Fabric.HopDist supplying
//     the per-topology exact distance;
//   - egress bandwidth: a producer with a zero-slack cross-PE consumer
//     must launch its value into an output register in its own firing
//     cycle, so the number of such pinned departures per (PE, wrapped
//     cycle) is bounded by the fabric's aggregate link egress capacity
//     (one output register's worth on shared-bus fabrics);
//   - memory ports: loads and stores sit only on memory-capable PEs.
//
// Exhausting the relaxation at II = k therefore soundly proves that no
// mapping at II = k exists within the scheduling horizon (see Options.
// Horizon; the certificate is horizon-relative, as in SAT-based modulo
// schedulers). A complete placement, conversely, proves nothing until
// the real detailed router (route.RouteDFG — shared with the baseline)
// turns it into a validated configuration, which is the upper-bound side
// of every certificate. If placements exist at II = k but none routes,
// the mapper does NOT claim k infeasible — the router is not complete —
// and optimality degrades to a lower bound only. One more necessary
// condition is tested on complete placements only, before the router:
//
//   - link exclusivity (the leaf screen, screen.go): a cross-PE edge
//     whose consumer fires exactly hop cycles after its producer has no
//     cycle to spare — waiting in an output register and passing through
//     a register file each cost one — so the value crosses one link per
//     cycle from the producer's firing cycle on, each link one hop
//     closer: it holds the output registers of a shortest link path in
//     consecutive cycles. The screen enumerates those paths and
//     backtracks for one per such edge with no output-register occupancy
//     key (mrrg.Graph.DenseKey: wrapped cycle, PE, direction, directions
//     folded on a shared bus) carrying more distinct nets than its
//     capacity. Sinks of one net share a key, as fanout does in
//     the router; edges with slack, register files and ports are left
//     out; an edge with too many paths is dropped, and a search that runs
//     out of visits answers "unknown". Each of these only weakens the
//     test, so "no choice exists" means no legal routing exists and the
//     leaf fails exactly as the router would have failed it — same leaf
//     count, same restart, same trajectory — without the router call. It
//     is a pre-filter: it removes nothing from the search and adds
//     nothing to a refutation.
//
// Conflict analysis: every rejected candidate records which earlier
// decisions it conflicts with; on wipeout the search backjumps to the
// deepest decision in the accumulated conflict set (conflict-directed
// backjumping) and a bounded no-good table of failed assignment prefixes
// short-circuits re-exploration after restarts within the same II.
//
// Certificates are relative to the flat mapping space the solver (and
// the SA baseline) searches, where route pseudo-ops occupy FU slots as
// moves. HiMap's hierarchical flow realizes routes on routing resources
// instead, so the only bound valid against ANY mapper is LowerBound,
// which excludes routes from the FU term.
package exact

import (
	"context"
	"fmt"
	"time"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/route"
)

// Options tunes the exact mapper.
type Options struct {
	// MaxNodes is the hard DFG size wall (default 96). Branch-and-bound
	// cost grows exponentially with the DFG, so the wall is far lower
	// than the baseline's 400-node heuristic wall.
	MaxNodes int
	// MaxII bounds the iterative deepening (default 16).
	MaxII int
	// TimeBudget bounds the whole search; 0 = unlimited. The budget is
	// polled inside the branch-and-bound loop, so expiry surfaces
	// promptly as a diag.ErrExactTimeout StageError carrying the
	// strongest lower bound proved so far.
	TimeBudget time.Duration
	// Horizon is the number of extra cycles beyond the DFG's ASAP span
	// that placements may use (the scheduling horizon; default 2·II+2,
	// matching the baseline SA's move window). Infeasibility
	// certificates are relative to this horizon.
	Horizon int
	// RouteRounds bounds the PathFinder rounds spent verifying each
	// complete placement (default 8).
	RouteRounds int
	// MaxRoutedLeaves caps how many complete placements are handed to
	// the detailed router per II before the search gives up on that II
	// without a verdict (default 256). The cap never affects refutation
	// certificates: a refuted II has, by definition, no leaves.
	MaxRoutedLeaves int
	// Tracer receives one span per II attempt (stage "search", Attempt =
	// II) plus the dfg-build span, on the same contract as the other
	// backends. nil means no tracing.
	Tracer diag.Tracer
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 96
	}
	if o.MaxII == 0 {
		o.MaxII = 16
	}
	if o.RouteRounds == 0 {
		o.RouteRounds = 8
	}
	if o.MaxRoutedLeaves == 0 {
		o.MaxRoutedLeaves = 256
	}
	if o.Tracer == nil {
		o.Tracer = diag.Nop()
	}
	return o
}

// Certificate names how an Optimality claim was established.
type Certificate string

const (
	// CertNone: no optimality claim beyond the static lower bound.
	CertNone Certificate = ""
	// CertResMII: the achieved II equals the static ResMII/RecMII lower
	// bound, which is horizon-independent — minimality is unconditional.
	CertResMII Certificate = "resmii"
	// CertExhaustive: every II below the achieved one was refuted by
	// exhausting the branch-and-bound relaxation. The refutations are
	// relative to the scheduling horizon (Optimality.Horizon).
	CertExhaustive Certificate = "exhaustive"
)

// Optimality is the certificate block attached to every exact-mapper
// result (and threaded through Result and the himapd wire schema).
type Optimality struct {
	// ProvedMinimal reports that no mapping with a smaller II exists
	// (within the scheduling horizon for CertExhaustive).
	ProvedMinimal bool
	// IILowerBound is the strongest proved lower bound on the II: the
	// static ResMII/RecMII bound, raised by every exhaustively refuted
	// II. When ProvedMinimal, it equals the achieved II.
	IILowerBound int
	// Certificate says how minimality was established (empty when it
	// was not).
	Certificate Certificate
	// Explored counts branch-and-bound decisions across all II attempts.
	Explored int64
	// Horizon is the scheduling horizon (max extra cycles beyond the
	// ASAP span) the certificates are relative to.
	Horizon int
}

// Result is a completed exact mapping.
type Result struct {
	Kernel       *kernel.Kernel
	Fabric       arch.Fabric
	Block        []int
	II           int
	Config       *arch.Config
	Utilization  float64
	Optimality   Optimality
	Time         time.Duration
	RoutedLeaves int // complete placements that did not route: screened, or failed in the detailed router

	ScreenedLeaves int // of RoutedLeaves, those the leaf screen refuted without a router call
}

// Summary renders a one-line description.
func (r *Result) Summary() string {
	proof := "upper bound"
	if r.Optimality.ProvedMinimal {
		proof = fmt.Sprintf("proved minimal, certificate %s", r.Optimality.Certificate)
	}
	return fmt.Sprintf("%s on %s (exact): block %v, II %d (%s), U = %.1f%%",
		r.Kernel.Name, r.Fabric, r.Block, r.II, proof, r.Utilization*100)
}

// ErrTooLarge is returned when the DFG exceeds the exact mapper's
// branch-and-bound size wall.
type ErrTooLarge struct{ Nodes, Max int }

func (e ErrTooLarge) Error() string {
	return fmt.Sprintf("exact: DFG with %d nodes exceeds the %d-node exact-search wall", e.Nodes, e.Max)
}

// LowerBound returns the static resource lower bound on the II of ANY
// mapping of the kernel's block DFG onto the fabric, without running the
// search: compute ops against the PE count (every compute op needs an FU
// issue slot) and loads/stores against the memory-capable PE count
// (every access needs a memory port cycle). Route pseudo-ops are
// excluded — HiMap realizes them on routing resources without an FU
// slot, so counting them would overclaim against the hierarchical flow.
// It is the bound HiMap and baseline IIs can be regression-tested
// against even at block sizes the exact search cannot reach.
func LowerBound(k *kernel.Kernel, fab arch.Fabric, block []int) (int, error) {
	if k == nil {
		return 0, diag.Failf(diag.ErrInvalidRequest, "nil kernel").Stamp("request", "", fab.String(), 0)
	}
	d, err := k.BuildDFG(block)
	if err != nil {
		return 0, err
	}
	return resourceMII(d, fab, false)
}

// staticMII computes the resource-constrained minimum II of the flat
// mapping space the exact solver (and the SA baseline) searches, where
// route pseudo-ops occupy FU slots as moves. The block DFG is acyclic,
// so the recurrence-constrained bound is 1. Optimality certificates are
// relative to this space — see the package comment.
func staticMII(d *ir.DFG, fab arch.Fabric) (int, error) {
	return resourceMII(d, fab, true)
}

// resourceMII is the shared bound: FU ops (compute, plus routes when the
// encoding places them on FUs) against the PE count, and loads/stores
// against the memory-capable PE count.
func resourceMII(d *ir.DFG, fab arch.Fabric, routesOnFU bool) (int, error) {
	nfu, nload, nstore := d.NumCompute(), 0, 0
	for _, n := range d.Nodes {
		switch n.Kind {
		case ir.OpLoad:
			nload++
		case ir.OpStore:
			nstore++
		case ir.OpRoute:
			if routesOnFU {
				nfu++
			}
		}
	}
	pes := fab.NumPEs()
	mem := fab.NumMemPEs()
	if mem == 0 && nload+nstore > 0 {
		return 0, diag.Failf(diag.ErrMemPortInfeasible,
			"%d loads and %d stores on a fabric with no memory-capable PE", nload, nstore).
			Stamp("search", "", fab.String(), 0)
	}
	mii := (nfu + pes - 1) / pes
	if mem > 0 {
		if m := (nload + mem - 1) / mem; m > mii {
			mii = m
		}
		if m := (nstore + mem - 1) / mem; m > mii {
			mii = m
		}
	}
	if mii < 1 {
		mii = 1
	}
	return mii, nil
}

// CompileRequest maps the kernel's block DFG exactly onto the fabric:
// iterative deepening on II from the static lower bound,
// branch-and-bound at each II, detailed routing (route.RouteDFG) of
// every complete placement, and an Optimality certificate on success.
// Failure classes:
//
//   - diag.ErrProvedInfeasible: every II up to MaxII was exhaustively
//     refuted (within the horizon) — no mapping exists;
//   - diag.ErrExactTimeout: TimeBudget expired first; the error text
//     carries the strongest lower bound proved;
//   - diag.ErrCanceled: the context was canceled;
//   - diag.ErrPlacementInfeasible: the deepening ran out of IIs without
//     either a mapping or a complete refutation (router incompleteness
//     or the leaf cap) — no infeasibility is claimed.
func CompileRequest(ctx context.Context, k *kernel.Kernel, fab arch.Fabric, block []int, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k == nil {
		return nil, diag.Failf(diag.ErrInvalidRequest, "nil kernel").Stamp("request", "", fab.String(), 0)
	}
	opts = opts.withDefaults()
	if err := fab.Validate(); err != nil {
		return nil, err
	}
	start := time.Now() //lint:ignore determinism wall-clock span timing only; does not influence mapping
	deadline := time.Time{}
	if opts.TimeBudget > 0 {
		deadline = start.Add(opts.TimeBudget)
	}
	if block == nil {
		block = k.UniformBlock(2)
	}
	// Reject oversized blocks before materializing the DFG (the body-op
	// count per iteration is a lower bound on DFG nodes).
	if lower := ir.BoxSize(block) * len(k.Body); lower > opts.MaxNodes {
		return nil, ErrTooLarge{Nodes: lower, Max: opts.MaxNodes}
	}
	buildStart := time.Now() //lint:ignore determinism wall-clock span timing only; does not influence mapping
	d, err := k.BuildDFG(block)
	if err != nil {
		return nil, err
	}
	opts.Tracer.Emit(diag.Span{Stage: "dfg-build", Wall: time.Since(buildStart),
		Counters: map[string]int64{"nodes": int64(len(d.Nodes))}})
	if len(d.Nodes) > opts.MaxNodes {
		return nil, ErrTooLarge{Nodes: len(d.Nodes), Max: opts.MaxNodes}
	}
	mii, err := staticMII(d, fab)
	if err != nil {
		if se, ok := err.(*diag.StageError); ok {
			se.Kernel = k.Name
		}
		return nil, err
	}

	var explored int64
	leaves, screened := 0, 0
	lb := mii            // strongest proved lower bound
	refutedBelow := true // every II in [mii, current) exhaustively refuted
	horizonUsed := 0     // horizon of the last search (for the certificate)

	ses := new(route.Session) // routes every leaf of every II
	for ii := mii; ii <= opts.MaxII; ii++ {
		if err := ctx.Err(); err != nil {
			return nil, diag.Fail(diag.ErrCanceled, err).Stamp("search", k.Name, fab.String(), ii)
		}
		s := newSearcher(d, fab, ii, opts, ses)
		horizonUsed = s.horizon
		searchStart := time.Now() //lint:ignore determinism wall-clock span timing only; does not influence mapping
		st, cfg := s.run(ctx, deadline)
		explored += s.explored
		leaves += s.leaves
		screened += s.screened
		span := diag.Span{Stage: "search", Attempt: ii, Wall: time.Since(searchStart),
			Counters: map[string]int64{"explored": s.explored, "leaves": int64(s.leaves), "screened": int64(s.screened)}}
		switch st {
		case statusRouted:
			opts.Tracer.Emit(span)
			opt := Optimality{IILowerBound: lb, Explored: explored, Horizon: s.horizon}
			switch {
			case ii == mii:
				opt.ProvedMinimal, opt.Certificate, opt.IILowerBound = true, CertResMII, ii
			case refutedBelow:
				opt.ProvedMinimal, opt.Certificate, opt.IILowerBound = true, CertExhaustive, ii
			}
			return &Result{
				Kernel: k, Fabric: fab, Block: block, II: ii,
				Config:       cfg,
				Utilization:  float64(d.NumCompute()) / float64(fab.NumPEs()*ii),
				Optimality:   opt,
				Time:         time.Since(start),
				RoutedLeaves: leaves, ScreenedLeaves: screened,
			}, nil
		case statusRefuted:
			if refutedBelow {
				lb = ii + 1
			}
			span.Err = fmt.Sprintf("II %d refuted (%d decisions)", ii, s.explored)
			opts.Tracer.Emit(span)
		case statusUnproven:
			refutedBelow = false
			span.Err = fmt.Sprintf("II %d inconclusive: placements found but none routed", ii)
			opts.Tracer.Emit(span)
		case statusCanceled:
			return nil, diag.Fail(diag.ErrCanceled, ctx.Err()).Stamp("search", k.Name, fab.String(), ii)
		case statusBudget:
			return nil, diag.Failf(diag.ErrExactTimeout,
				"budget %v expired at II %d after %d decisions; proved II ≥ %d",
				opts.TimeBudget, ii, explored, lb).
				Stamp("search", k.Name, fab.String(), ii)
		}
	}
	if refutedBelow {
		return nil, diag.Failf(diag.ErrProvedInfeasible,
			"every II in [%d, %d] exhaustively refuted within horizon %d", mii, opts.MaxII, horizonUsed).
			Stamp("search", k.Name, fab.String(), opts.MaxII)
	}
	return nil, diag.Failf(diag.ErrPlacementInfeasible,
		"no routable placement up to II %d (proved II ≥ %d; some IIs had unrouted placements)",
		opts.MaxII, lb).
		Stamp("search", k.Name, fab.String(), opts.MaxII)
}
