// Package baseline implements a conventional flat DFG → MRRG CGRA mapper,
// standing in for the paper's "Best of HyCUBE & CGRA-ME" (BHC) baseline:
// simulated-annealing placement over (cycle, PE) slots of the fully
// unrolled block DFG, followed by PathFinder-style negotiated routing,
// with initiation-interval escalation on failure.
//
// Like the published baselines it inherits their scalability wall: the
// joint placement space grows with |V_D| × |MRRG|, so mapping quality and
// compile time degrade rapidly beyond a few hundred DFG nodes (§VI:
// "BHC fails to find a solution when the number of DFG nodes is higher
// than 400 due to scalability issues"). MaxNodes models that wall
// explicitly; TimeBudget models the paper's 3-day timeout.
package baseline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/mrrg"
	"himap/internal/par"
	"himap/internal/route"
)

// Options tunes the baseline mapper.
type Options struct {
	MaxNodes   int           // hard DFG size wall (default 400)
	MaxII      int           // II escalation bound (default 32, the config depth)
	Seed       int64         // SA seed
	SAMoves    int           // SA moves per II attempt; 0 = auto (scales with DFG²)
	TimeBudget time.Duration // overall wall-clock budget; 0 = unlimited
	RouteRound int           // negotiated congestion rounds (default 6)
	// Workers is the number of independently seeded simulated-annealing
	// chains raced per II attempt; the feasible placement with the lowest
	// cost wins, ties broken deterministically toward the lowest chain
	// index (i.e. the lowest seed). 0 or 1 keeps the classic single-chain
	// mapper, whose output is bit-stable across releases; higher values
	// trade CPU for placement quality and wall-clock at a fixed seed.
	Workers int
	// Tracer receives one span per mapper stage (dfg-build, then place and
	// route per II attempt, with Attempt = II), on the same contract as the
	// HiMap pipeline so harnesses can compare the two mappers' stage costs
	// and failure modes uniformly. nil means no tracing.
	Tracer diag.Tracer
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 400
	}
	if o.MaxII == 0 {
		o.MaxII = 32
	}
	if o.RouteRound == 0 {
		o.RouteRound = 6
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Tracer == nil {
		o.Tracer = diag.Nop()
	}
	return o
}

// Result is a completed baseline mapping.
type Result struct {
	Kernel      *kernel.Kernel
	Fabric      arch.Fabric
	Block       []int
	II          int
	Config      *arch.Config
	Utilization float64
	Time        time.Duration
	SAMoves     int
}

// Summary renders a one-line description.
func (r *Result) Summary() string {
	return fmt.Sprintf("%s on %s (baseline): block %v, II %d, U = %.1f%%",
		r.Kernel.Name, r.Fabric, r.Block, r.II, r.Utilization*100)
}

// ErrTooLarge is returned when the DFG exceeds the scalability wall.
type ErrTooLarge struct{ Nodes, Max int }

func (e ErrTooLarge) Error() string {
	return fmt.Sprintf("baseline: DFG with %d nodes exceeds the mapper's %d-node scalability wall", e.Nodes, e.Max)
}

// ErrTimeout is returned when the time budget expires.
type ErrTimeout struct{ Budget time.Duration }

func (e ErrTimeout) Error() string {
	return fmt.Sprintf("baseline: time budget %v exhausted without a valid mapping", e.Budget)
}

// place aliases the shared routing layer's slot type so SA chains hand
// their winning placement straight to route.RouteDFG.
type place = route.Placement

// CompileRequest maps the kernel's block DFG onto the fabric: SA
// placement (loads and stores restricted to memory-capable PEs) plus
// negotiated routing over the fabric's link set. The context is
// checked before each II attempt, between the placement and routing
// phases, and every 4096 SA moves inside each annealing chain, so a
// cancellation or deadline aborts the mapper promptly with a
// diag.ErrCanceled StageError (the original context error stays in the
// cause chain).
func CompileRequest(ctx context.Context, k *kernel.Kernel, cg arch.Fabric, block []int, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	if err := cg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now() //lint:ignore determinism wall-clock span timing only; does not influence mapping
	deadline := time.Time{}
	if opts.TimeBudget > 0 {
		deadline = start.Add(opts.TimeBudget)
	}
	// Reject oversized blocks before materializing the DFG: the body-op
	// count per iteration is a lower bound on nodes, and huge blocks
	// (e.g. TTM at b=64: 16.7M iterations) would otherwise allocate tens
	// of gigabytes only to be refused.
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
	ncomp := d.NumCompute()
	nfu := ncomp // routes occupy FUs as moves in a conventional mapping
	nload, nstore := 0, 0
	for _, n := range d.Nodes {
		switch n.Kind {
		case ir.OpLoad:
			nload++
		case ir.OpStore:
			nstore++
		case ir.OpRoute:
			nfu++
		}
	}
	pes := cg.NumPEs()
	mii := (nfu + pes - 1) / pes
	if m2 := (nload + pes - 1) / pes; m2 > mii {
		mii = m2
	}
	if m3 := (nstore + pes - 1) / pes; m3 > mii {
		mii = m3
	}
	if mii < 1 {
		mii = 1
	}

	// Chain 0 keeps the historical shared rng across II attempts, so a
	// single-chain run is bit-identical to the pre-parallel mapper; extra
	// chains get fresh deterministic seeds per (II, chain).
	rng := rand.New(rand.NewSource(opts.Seed + int64(len(d.Nodes))))
	totalMoves := 0
	var lastErr error
	ses := new(route.Session) // routes the winning placement of every II
	for ii := mii; ii <= opts.MaxII; ii++ {
		if err := ctx.Err(); err != nil {
			return nil, diag.Fail(diag.ErrCanceled, err).Stamp("place", k.Name, cg.String(), ii)
		}
		if !deadline.IsZero() && time.Now().After(deadline) { //lint:ignore determinism opt-in TimeBudget deadline; documented nondeterminism when set
			return nil, ErrTimeout{Budget: opts.TimeBudget}
		}
		moves := opts.SAMoves
		if moves == 0 {
			// SA effort grows quadratically with problem size — the
			// super-linear compile-time behaviour of Fig. 8.
			moves = 1500*len(d.Nodes) + 2*len(d.Nodes)*len(d.Nodes)
		}
		type chainOut struct {
			pl   []place
			ok   bool
			cost float64
		}
		outs := make([]chainOut, opts.Workers)
		placeStart := time.Now() //lint:ignore determinism wall-clock span timing only; does not influence mapping
		par.ForEach(opts.Workers, opts.Workers, func(ci int) {
			r := rng
			if ci > 0 {
				r = rand.New(rand.NewSource(opts.Seed + int64(len(d.Nodes)) +
					int64(ci)*1_000_003 + int64(ii)*8191))
			}
			pl, ok, cost := anneal(ctx, d, cg, ii, moves, r, deadline)
			outs[ci] = chainOut{pl: pl, ok: ok, cost: cost}
		})
		totalMoves += moves * opts.Workers
		// A chain aborted by cancellation reports ok=false; distinguish
		// that from a genuine infeasible placement before classifying.
		if err := ctx.Err(); err != nil {
			return nil, diag.Fail(diag.ErrCanceled, err).Stamp("place", k.Name, cg.String(), ii)
		}
		best := -1
		for ci := range outs {
			if outs[ci].ok && (best < 0 || outs[ci].cost < outs[best].cost) {
				best = ci
			}
		}
		placeSpan := diag.Span{Stage: "place", Attempt: ii, Wall: time.Since(placeStart),
			Counters: map[string]int64{"moves": int64(moves * opts.Workers)}}
		if best < 0 {
			se := diag.Failf(diag.ErrPlacementInfeasible, "no zero-violation placement at II %d", ii).
				Stamp("place", k.Name, cg.String(), ii)
			lastErr = se
			placeSpan.Err = se.Error()
			opts.Tracer.Emit(placeSpan)
			continue
		}
		opts.Tracer.Emit(placeSpan)
		pl := outs[best].pl
		routeStart := time.Now() //lint:ignore determinism wall-clock span timing only; does not influence mapping
		cfg, err := route.RouteDFG(ctx, ses.Reset(mrrg.New(cg, ii)), d, pl, opts.RouteRound)
		routeSpan := diag.Span{Stage: "route", Attempt: ii, Wall: time.Since(routeStart)}
		if err != nil {
			se := diag.Classify(err, diag.ErrRouteCongested).Stamp("route", k.Name, cg.String(), ii)
			lastErr = se
			routeSpan.Err = se.Error()
			opts.Tracer.Emit(routeSpan)
			continue
		}
		opts.Tracer.Emit(routeSpan)
		return &Result{
			Kernel: k, Fabric: cg, Block: block, II: ii,
			Config:      cfg,
			Utilization: float64(ncomp) / float64(pes*ii),
			Time:        time.Since(start),
			SAMoves:     totalMoves,
		}, nil
	}
	if !deadline.IsZero() && time.Now().After(deadline) { //lint:ignore determinism opt-in TimeBudget deadline; documented nondeterminism when set
		return nil, ErrTimeout{Budget: opts.TimeBudget}
	}
	if lastErr == nil {
		lastErr = diag.Failf(diag.ErrPlacementInfeasible, "minimum II %d exceeds MaxII %d", mii, opts.MaxII).
			Stamp("place", k.Name, cg.String(), mii)
	}
	return nil, fmt.Errorf("baseline: no valid mapping up to II %d for %s on %s: %w", opts.MaxII, k.Name, cg, lastErr)
}

// slotOf indexes a capacity-1 placement slot — FU / mem-read / mem-write
// (kind 0 / 1 / 2) of one PE at one wrapped cycle τ — in the SA's dense
// occupancy table of 3·II·Rows·Cols counters:
// ((kind·II+τ)·Rows+r)·Cols+c.
func slotOf(n *ir.Node, p place, ii, rows, cols int) int {
	k := 0
	switch n.Kind {
	case ir.OpLoad:
		k = 1
	case ir.OpStore:
		k = 2
	}
	return ((k*ii+((p.T%ii)+ii)%ii)*rows+p.R)*cols + p.C
}

// anneal performs simulated annealing over joint (time, PE) placements.
// It returns a placement with zero hard violations (plus its total cost,
// for best-of-N chain selection), or ok=false. The context is polled
// every 4096 moves (alongside the opt-in wall-clock deadline); a canceled
// chain returns ok=false and the caller re-checks ctx to classify.
func anneal(ctx context.Context, d *ir.DFG, cg arch.Fabric, ii, moves int, rng *rand.Rand, deadline time.Time) ([]place, bool, float64) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, false, 0
	}
	// On fabrics with restricted memory ports, loads and stores snap to
	// the nearest memory-capable PE after each random proposal. The snap
	// consumes no randomness and is a no-op on all-mem fabrics, so the
	// classic mapper's rng sequence (and hence its output) is unchanged.
	var memPEs [][2]int
	if cg.Mem != arch.MemAll {
		memPEs = cg.MemPEs()
	}
	snap := func(kind ir.OpKind, r, c int) (int, int) {
		if memPEs == nil || (kind != ir.OpLoad && kind != ir.OpStore) || cg.MemCapable(r, c) {
			return r, c
		}
		sr, sc, bd := r, c, int(^uint(0)>>1)
		for _, pe := range memPEs {
			if dd := absInt(pe[0]-r) + absInt(pe[1]-c); dd < bd {
				bd, sr, sc = dd, pe[0], pe[1]
			}
		}
		return sr, sc
	}
	// ASAP levels give the initial schedule and the move window.
	asap := make([]int, len(d.Nodes))
	for _, id := range order {
		for _, ei := range d.InEdges(id) {
			e := d.Edges[ei]
			if asap[e.From]+1 > asap[id] {
				asap[id] = asap[e.From] + 1
			}
		}
	}
	span := 0
	for _, l := range asap {
		if l > span {
			span = l
		}
	}
	window := span + 2*ii + 2

	pl := make([]place, len(d.Nodes))
	occ := make([]int32, 3*ii*cg.Rows*cg.Cols)
	for _, id := range order {
		n := d.Nodes[id]
		// Greedy: earliest feasible slot on the least-loaded PE near parents.
		bestR, bestC := rng.Intn(cg.Rows), rng.Intn(cg.Cols)
		if ins := d.InEdges(id); len(ins) > 0 {
			p := pl[d.Edges[ins[0]].From]
			bestR, bestC = p.R, p.C
		}
		bestR, bestC = snap(n.Kind, bestR, bestC)
		t := asap[id]
		p := place{T: t, R: bestR, C: bestC}
		for tries := 0; tries < 4*ii; tries++ {
			if ctx.Err() != nil {
				break // canceled: the caller aborts as soon as seeding returns
			}
			if occ[slotOf(n, p, ii, cg.Rows, cg.Cols)] == 0 {
				break
			}
			p.T++
		}
		pl[id] = p
		occ[slotOf(n, p, ii, cg.Rows, cg.Cols)]++
	}

	cost := func(id int) float64 {
		n := d.Nodes[id]
		c := 0.0
		p := pl[id]
		if k := slotOf(n, p, ii, cg.Rows, cg.Cols); occ[k] > 1 {
			c += 1000 * float64(occ[k]-1)
		}
		for _, ei := range d.InEdges(id) {
			e := d.Edges[ei]
			pp := pl[e.From]
			dist := absInt(pp.R-p.R) + absInt(pp.C-p.C)
			need := dist
			if need == 0 {
				need = 1
			}
			dt := p.T - pp.T
			if dt < need {
				c += 1000 * float64(need-dt)
			} else {
				c += float64(dist) + 0.2*float64(dt-need)
			}
		}
		for _, ei := range d.OutEdges(id) {
			e := d.Edges[ei]
			cp := pl[e.To]
			dist := absInt(cp.R-p.R) + absInt(cp.C-p.C)
			need := dist
			if need == 0 {
				need = 1
			}
			dt := cp.T - p.T
			if dt < need {
				c += 1000 * float64(need-dt)
			} else {
				c += float64(dist) + 0.2*float64(dt-need)
			}
		}
		return c
	}

	// feasible reports whether the placement has zero hard violations —
	// the SA's early-exit condition (burning the full move budget after
	// feasibility would only polish wirelength).
	feasible := func() bool {
		for _, id := range order {
			n := d.Nodes[id]
			if occ[slotOf(n, pl[id], ii, cg.Rows, cg.Cols)] > 1 {
				return false
			}
			p := pl[id]
			if (n.Kind == ir.OpLoad || n.Kind == ir.OpStore) && !cg.MemCapable(p.R, p.C) {
				return false
			}
			for _, ei := range d.InEdges(id) {
				e := d.Edges[ei]
				pp := pl[e.From]
				dist := absInt(pp.R-p.R) + absInt(pp.C-p.C)
				need := dist
				if need == 0 {
					need = 1
				}
				if p.T-pp.T < need {
					return false
				}
			}
		}
		return true
	}

	temp := 60.0
	decay := math.Pow(0.02/temp, 1/float64(moves+1))
	for mv := 0; mv < moves; mv++ {
		if mv%4096 == 0 {
			if ctx.Err() != nil {
				return nil, false, 0
			}
			if !deadline.IsZero() && time.Now().After(deadline) { //lint:ignore determinism opt-in TimeBudget deadline; documented nondeterminism when set
				return nil, false, 0
			}
		}
		id := rng.Intn(len(d.Nodes))
		n := d.Nodes[id]
		old := pl[id]
		oldCost := cost(id)
		nt := asap[id] + rng.Intn(window-asap[id])
		np := place{T: nt, R: rng.Intn(cg.Rows), C: rng.Intn(cg.Cols)}
		np.R, np.C = snap(n.Kind, np.R, np.C)
		so, sn := slotOf(n, old, ii, cg.Rows, cg.Cols), slotOf(n, np, ii, cg.Rows, cg.Cols)
		occ[so]--
		pl[id] = np
		occ[sn]++
		newCost := cost(id)
		dc := newCost - oldCost
		if dc > 0 && rng.Float64() >= math.Exp(-dc/temp) {
			occ[sn]--
			pl[id] = old
			occ[so]++
		}
		temp *= decay
	}
	if !feasible() {
		return pl, false, 0
	}
	total := 0.0
	for id := range d.Nodes {
		total += cost(id)
	}
	return pl, true, total
}

// LargestFeasibleBlock returns the biggest uniform block size whose DFG
// stays under the node wall — how a user would drive the baseline on a
// large CGRA (§VI: "BHC maps the small DFG keeping the block size small").
func LargestFeasibleBlock(k *kernel.Kernel, maxNodes, cap int) int {
	best := 0
	for b := k.MinBlock; b <= cap; b++ {
		d, err := k.BuildDFG(k.UniformBlock(b))
		if err != nil {
			continue
		}
		if len(d.Nodes) > maxNodes {
			break
		}
		best = b
	}
	if best == 0 {
		best = k.MinBlock
	}
	return best
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
