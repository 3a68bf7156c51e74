package himap

import (
	"context"
	"runtime"
	"time"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/route"
	"himap/internal/systolic"
)

// Stage names of the HiMap compilation pipeline, in execution order. The
// first two are front stages (run once per compile); the rest form the
// per-attempt pipeline executed speculatively for each (sub-mapping,
// scheme) candidate.
const (
	StageIDFGMap      = "idfg-map"      // kernel → generic IDFG → sub-CGRA mappings
	StageSchemeSearch = "scheme-search" // systolic (H,S) candidates → ranked attempt list
	StageBlockDerive  = "block-derive"  // block vector + realized space-time mapping
	StageISDGBuild    = "isdg-build"    // full block unroll → DFG + ISDG (memoized)
	StageForward      = "forward"       // forwarding-path insertion (lines 14-17)
	StagePlace        = "place"         // cluster placement on the VSA (line 13)
	StageUnique       = "unique"        // unique-iteration identification (line 19)
	StageRoute        = "route"         // canonical minimal-DFG routing (lines 21-27)
	StageReplicate    = "replicate"     // stamping onto all class members (line 29)
	StageValidate     = "validate"      // final configuration validation
)

// stageOrder lists every stage for deterministic aggregation ordering.
var stageOrder = []string{
	StageIDFGMap, StageSchemeSearch, StageBlockDerive, StageISDGBuild,
	StageForward, StagePlace, StageUnique, StageRoute, StageReplicate,
	StageValidate,
}

// Stage is one named pass over a CompileContext. Run reads its inputs
// from the context and writes its artifacts back; the Pipeline runner
// owns timing, tracing, and failure classification, so stage bodies stay
// pure transformation logic.
type Stage struct {
	Name string
	// Fallback classes failures that carry neither a *diag.StageError nor
	// a known sentinel in their chain.
	Fallback error
	Run      func(*CompileContext) error
}

// Pipeline is an ordered stage list sharing one CompileContext.
type Pipeline []Stage

// Run executes the stages in order. Every stage execution — success or
// failure — emits one tracer span carrying its wall time, the context's
// attempt identity and launch generation, and any counters the stage
// recorded. The first failure stops the pipeline and returns a
// *diag.StageError stamped with the stage name and compile context. A
// stage that a lower-ranked attempt's success stops emits no span: the
// attempt did not fail, it was made moot.
//
// The compile's context.Context is checked at every stage boundary: a
// cancellation or expired deadline aborts the pipeline before the next
// stage starts, returning a diag.ErrCanceled StageError (stamped with the
// stage that would have run) whose cause chain keeps the original context
// error. Stage bodies themselves stay context-free pure transformations.
//
// The boundary is also where the compile yields the processor. A compile
// is one CPU-bound goroutine, and on a host with fewer than four
// processors the Go runtime runs no dedicated mark worker and does not
// re-wake an idle P for mark work: once the spare P has gone idle, a GC
// mark phase is finished only by this goroutine's own assists and
// stretches to the 10 ms preemption tick. Everything allocated meanwhile
// is retained and doubles the next heap goal, so the process's peak
// memory differed by 9 MB from one run to the next on 16x16 fabrics.
// Yielding lets the scheduler run the pending mark worker.
func (p Pipeline) Run(ctx *CompileContext) error {
	a, _ := ctx.Ctx.(*attemptCtx) // nil outside the attempt window
	for _, st := range p {
		runtime.Gosched()
		if cerr := ctx.Ctx.Err(); cerr != nil {
			if cerr == errSuperseded {
				return cerr
			}
			se := diag.Fail(diag.ErrCanceled, cerr)
			se.Stamp(st.Name, ctx.Kernel.Name, ctx.Fab.String(), ctx.Attempt)
			ctx.Tracer.Emit(diag.Span{
				Stage: st.Name, Attempt: ctx.Attempt, Wave: ctx.Wave, Err: se.Error(),
			})
			return se
		}
		ctx.counters = nil
		start := time.Now() //lint:ignore determinism wall-clock span timing only; does not influence mapping
		err := st.Run(ctx)
		wall := time.Since(start)
		span := diag.Span{
			Stage: st.Name, Attempt: ctx.Attempt, Wave: ctx.Wave,
			Wall: wall, Counters: ctx.counters,
		}
		if err != nil {
			if a != nil && a.superseded() { // not Err(), which would poll the caller's context
				return errSuperseded
			}
			se := diag.Classify(err, st.Fallback)
			se.Stamp(st.Name, ctx.Kernel.Name, ctx.Fab.String(), ctx.Attempt)
			span.Err = se.Error()
			ctx.Tracer.Emit(span)
			return se
		}
		ctx.Tracer.Emit(span)
	}
	return nil
}

// attempt is one (sub-CGRA mapping, systolic scheme) candidate with its
// derived VSA geometry, ranked in the deterministic search order.
type attempt struct {
	sub    *SubMapping
	sch    systolic.Scheme
	vx, vy int
}

// CompileContext carries the state threaded through the pipeline: the
// compilation inputs, the shared services (artifact memo, tracer), the
// front artifacts produced once per compile, and the attempt-scoped
// artifacts each speculative attempt derives privately. Front artifacts
// are read-only once the front pipeline finishes, so attempt contexts
// share them without copying.
type CompileContext struct {
	// Ctx is the compile's cancellation context, checked by the pipeline
	// runner at stage boundaries (never nil).
	Ctx context.Context

	Kernel *kernel.Kernel
	Fab    arch.Fabric
	Opts   Options
	Memo   *Memo
	Tracer diag.Tracer

	// Front artifacts (idfg-map, scheme-search).
	IDFG     *ir.IDFG
	Subs     []*SubMapping
	Deps     []ir.IterVec
	Attempts []attempt

	// Attempt identity: 1-based rank and launch generation (1 + the
	// attempts finished when it was claimed); 0 for front stages.
	Attempt int
	Wave    int

	// Attempt-scoped artifacts.
	Sub       *SubMapping
	Scheme    systolic.Scheme
	VX, VY    int
	Block     []int
	Mapping   *systolic.Mapping
	DFG       *ir.DFG
	ISDG      *ir.ISDG
	CP        *ClusterPlace
	Classes   []*UniqueClass
	ByCluster []int
	IIB       int
	Plans     [][]canonNet
	RStats    RouteStats
	Config    *arch.Config

	lay      *layout
	ses      *route.Session // from the window's free list, until the attempt routes
	counters map[string]int64
}

func newContext(ctx context.Context, k *kernel.Kernel, fab arch.Fabric, opts Options) *CompileContext {
	return &CompileContext{
		Ctx:    ctx,
		Kernel: k, Fab: fab, Opts: opts,
		Memo: opts.Memo, Tracer: opts.Tracer,
	}
}

// forAttempt derives a private context for one speculative attempt,
// sharing the read-only front artifacts; the attempt polls ctx and
// routes on ses.
func (c *CompileContext) forAttempt(a attempt, ctx context.Context, rank, wave int, ses *route.Session) *CompileContext {
	return &CompileContext{
		Ctx:    ctx,
		Kernel: c.Kernel, Fab: c.Fab, Opts: c.Opts,
		Memo: c.Memo, Tracer: c.Tracer,
		IDFG: c.IDFG, Subs: c.Subs, Deps: c.Deps,
		Attempt: rank, Wave: wave,
		Sub: a.sub, Scheme: a.sch, VX: a.vx, VY: a.vy,
		ses: ses,
	}
}

// Count accumulates a counter onto the currently running stage's span.
func (c *CompileContext) Count(key string, v int64) {
	if c.counters == nil {
		c.counters = map[string]int64{}
	}
	c.counters[key] += v
}

// frontStages run once per compile and produce the ranked attempt list.
var frontStages = Pipeline{
	{Name: StageIDFGMap, Fallback: diag.ErrNoSubMapping, Run: runIDFGMap},
	{Name: StageSchemeSearch, Fallback: diag.ErrSchemeInfeasible, Run: runSchemeSearch},
}

// attemptStages execute Algorithm 1's steps 2 and 3 for one candidate.
var attemptStages = Pipeline{
	{Name: StageBlockDerive, Fallback: diag.ErrSchemeInfeasible, Run: runBlockDerive},
	{Name: StageISDGBuild, Fallback: diag.ErrSchemeInfeasible, Run: runISDGBuild},
	{Name: StageForward, Fallback: diag.ErrSchemeInfeasible, Run: runForward},
	{Name: StagePlace, Fallback: diag.ErrPlacementInfeasible, Run: runPlace},
	{Name: StageUnique, Fallback: diag.ErrPlacementInfeasible, Run: runUnique},
	{Name: StageRoute, Fallback: diag.ErrRouteCongested, Run: runRoute},
	{Name: StageReplicate, Fallback: diag.ErrReplicaConflict, Run: runReplicate},
	{Name: StageValidate, Fallback: diag.ErrConfigInvalid, Run: runValidate},
}

// runIDFGMap builds (or recalls) the generic IDFG and the ranked
// sub-CGRA mapping list — Algorithm 1 step 1.
func runIDFGMap(c *CompileContext) error {
	f, err := c.Memo.IDFG(c.Kernel)
	if err != nil {
		return err
	}
	c.IDFG = f
	subs, err := c.Memo.SubMappings(c.Kernel, f, c.Fab)
	if err != nil {
		return err
	}
	if len(subs) == 0 {
		return diag.Fail(diag.ErrNoSubMapping, nil)
	}
	if len(subs) > maxSubMaps {
		subs = subs[:maxSubMaps]
	}
	c.Subs = subs
	c.Count("submaps", int64(len(subs)))
	return nil
}

// runSchemeSearch ranks the schemes each sub-mapping's VSA can take and
// materializes the deterministic attempt ranking. A ranking reads only
// the kernel and the VSA's axis count (1 when the VSA is one cluster
// wide or the kernel is 1-D, else 2), so each count's ranking is asked
// for once. Options.ForceScheme is read here and nowhere else: it is
// every sub-mapping's one candidate, and the memo never sees it.
func runSchemeSearch(c *CompileContext) error {
	c.Deps = c.Kernel.DistanceVectors()
	var ranked [2][]systolic.Scheme // by axis count − 1
	var asked [2]bool
	if f := c.Opts.ForceScheme; f != nil {
		ranked, asked = [2][]systolic.Scheme{{*f}, {*f}}, [2]bool{true, true}
	}
	for _, sub := range c.Subs {
		// MapIDFG builds every sub-CGRA from divisors of the fabric's
		// sides, so its blocks tile the fabric evenly.
		vx, vy := c.Fab.Rows/sub.S1, c.Fab.Cols/sub.S2
		a := 1
		if vy > 1 && c.Kernel.Dim > 1 {
			a = 2
		}
		if !asked[a-1] {
			ranked[a-1], asked[a-1] = c.Memo.Schemes(c.Kernel, c.Deps, a, c.Opts.Workers), true
		}
		for _, sch := range ranked[a-1] {
			c.Attempts = append(c.Attempts, attempt{sub: sub, sch: sch, vx: vx, vy: vy})
		}
	}
	c.Count("attempts", int64(len(c.Attempts)))
	if len(c.Attempts) == 0 {
		return diag.Failf(diag.ErrSchemeInfeasible, "no valid systolic scheme")
	}
	return nil
}

// runBlockDerive derives the block vector from the scheme and VSA extents
// (line 6: b1 = c/s1, b2 = c/s2), realizes the space-time mapping, and
// checks feasibility against the dependences.
func runBlockDerive(c *CompileContext) error {
	if err := checkSchemeShape(c.Kernel.Dim, c.Scheme); err != nil {
		return err
	}
	block, err := blockForScheme(c.Kernel, c.Scheme, c.VX, c.VY, c.Opts)
	if err != nil {
		return err
	}
	c.Block = block
	m := c.Scheme.Realize(block)
	if err := m.Validate(c.Deps); err != nil {
		return diag.Fail(diag.ErrSchemeInfeasible, err)
	}
	// The space dimensions take the VSA extents as their block sizes, so
	// the realized array is VX×VY (VX×1 with one space dimension).
	c.Mapping = m
	return nil
}

// checkSchemeShape rejects structurally malformed schemes — SpaceDims and
// TimePerm must partition the kernel dimensions exactly — before Realize,
// which assumes a well-formed scheme. Generated candidates always satisfy
// this; the check protects the ForceScheme escape hatch.
func checkSchemeShape(dim int, sch systolic.Scheme) error {
	if len(sch.SpaceDims) < 1 || len(sch.SpaceDims) > 2 {
		return diag.Failf(diag.ErrSchemeInfeasible, "scheme has %d space dims, want 1 or 2", len(sch.SpaceDims))
	}
	if len(sch.Skew) != len(sch.SpaceDims) {
		return diag.Failf(diag.ErrSchemeInfeasible, "scheme has %d skew coefficients for %d space dims", len(sch.Skew), len(sch.SpaceDims))
	}
	if len(sch.SpaceDims)+len(sch.TimePerm) != dim {
		return diag.Failf(diag.ErrSchemeInfeasible, "scheme covers %d of %d kernel dims", len(sch.SpaceDims)+len(sch.TimePerm), dim)
	}
	seen := make([]bool, dim)
	for _, d := range append(append([]int(nil), sch.SpaceDims...), sch.TimePerm...) {
		if d < 0 || d >= dim || seen[d] {
			return diag.Failf(diag.ErrSchemeInfeasible, "scheme dim %d out of range or repeated", d)
		}
		seen[d] = true
	}
	return nil
}

// runISDGBuild unrolls the kernel over the block — memoized, since
// attempts trying different schemes over the same block vector (and
// repeated compiles of the same kernel) share the artifact.
func runISDGBuild(c *CompileContext) error {
	dfg, isdg, err := c.Memo.ISDG(c.Kernel, c.Block)
	if err != nil {
		return err
	}
	c.DFG, c.ISDG = dfg, isdg
	c.Count("dfg-nodes", int64(len(dfg.Nodes)))
	return nil
}

// runForward inserts forwarding paths (AddForwardingPath, lines 14-17).
// The memoized DFG is never mutated: ApplyForwarding returns a fresh
// graph with its ISDG, or the originals.
func runForward(c *CompileContext) error {
	fdfg, fisdg, err := ApplyForwarding(c.DFG, c.ISDG, c.Mapping)
	if err != nil {
		return err
	}
	if fdfg != c.DFG {
		c.DFG, c.ISDG = fdfg, fisdg
		c.Count("forwarded", 1)
	}
	return nil
}

// runPlace places the ISDG clusters on the virtual systolic array.
func runPlace(c *CompileContext) error {
	c.CP = PlaceClusters(c.ISDG, c.Mapping)
	return nil
}

// runUnique identifies the unique iteration classes (Figure 2) and fixes
// the block initiation interval II_B = depth × II_S.
func runUnique(c *CompileContext) error {
	c.Classes, c.ByCluster = IdentifyUnique(c.ISDG, c.CP)
	c.IIB = c.Sub.Depth * c.Mapping.IIS
	c.Count("unique-iters", int64(len(c.Classes)))
	return nil
}

// runRoute routes the canonical minimal DFG — one net per (unique class,
// producer) — under negotiated congestion.
func runRoute(c *CompileContext) error {
	c.lay = &layout{
		cg: c.Fab, g: c.ISDG, cp: c.CP, sub: c.Sub, iib: c.IIB,
		classes: c.Classes, byClust: c.ByCluster,
	}
	plans, rstats, err := c.lay.routeCanonical(c.Ctx, c.ses, maxRouteRounds)
	c.RStats = rstats
	c.Count("rounds", int64(rstats.Rounds))
	c.Count("nets", int64(rstats.CanonicalNets))
	c.Count("reserved", int64(rstats.Reserved))
	c.Count("charged", int64(rstats.Charged))
	c.Count("live_pes", int64(rstats.LivePEs))
	c.Count("fallbacks", int64(rstats.Fallbacks))
	if err != nil {
		return err
	}
	c.ses = nil // routed: nothing later routes, so let the session go (CompileRequest)
	c.Plans = plans
	return nil
}

// runReplicate stamps the canonical placements and routes onto every
// class member (line 29).
func runReplicate(c *CompileContext) error {
	cfg, err := c.lay.replicate(c.Plans)
	if err != nil {
		return err
	}
	c.Config = cfg
	return nil
}

// runValidate checks the emitted configuration end to end.
func runValidate(c *CompileContext) error {
	if err := c.Config.Validate(); err != nil {
		return diag.Fail(diag.ErrConfigInvalid, err)
	}
	return nil
}

// buildResult assembles the Result of a successful attempt.
func (c *CompileContext) buildResult() *Result {
	util := float64(c.DFG.NumCompute()) / float64(c.Fab.NumPEs()*c.IIB)
	return &Result{
		Kernel: c.Kernel, Fabric: c.Fab,
		Sub: c.Sub, Scheme: c.Scheme, Mapping: c.Mapping,
		Block: c.Block, IIB: c.IIB,
		DFG: c.DFG, ISDG: c.ISDG, CP: c.CP,
		UniqueIters: len(c.Classes),
		Classes:     c.Classes,
		ByCluster:   c.ByCluster,
		Config:      c.Config,
		Utilization: util,
		Stats: Stats{
			CanonicalNets: c.RStats.CanonicalNets,
			RouteRounds:   c.RStats.Rounds,
		},
	}
}
