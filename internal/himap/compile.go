package himap

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"himap/internal/arch"
	"himap/internal/diag"
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
	// ForceScheme pins the space-time mapping (H,S is an input in
	// Algorithm 1; by default it is found by the heuristic search).
	ForceScheme *systolic.Scheme
	// Workers bounds the compilation pipeline's parallelism: the systolic
	// (H,S) scheme search is sharded across Workers goroutines, and
	// (sub-mapping, scheme) attempts run speculatively in a rank-ordered
	// window of up to Workers, opened only after attempt 1 has failed,
	// always committing to the first attempt (in the sequential ranking
	// order) that succeeds. The emitted mapping is therefore bit-identical
	// for every Workers value; only wall-clock changes.
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

// The settings of Algorithm 1 beyond its two inputs (the space-time
// mapping and the inner block), fixed for every compile.
const (
	// depthSlack is how many extra sub-CGRA time depths MAP explores
	// beyond the resource minimum (fallbacks with more routing slack).
	depthSlack = 2
	// maxSubMaps bounds how many sub-CGRA mappings step 2/3 iterate over.
	maxSubMaps = 8
	// maxSchemes bounds how many systolic schemes are tried per sub-CGRA
	// mapping.
	maxSchemes = 6
	// maxRouteRounds bounds the negotiated-congestion rounds of step 3.
	maxRouteRounds = 8
)

func (o Options) withDefaults() Options {
	if o.InnerBlock == 0 {
		o.InnerBlock = 4
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
// stages: attempt 1 alone, then, once it has failed, up to Workers at a
// time in rank order with no barrier between them. A success stops every
// higher-ranked attempt at its next poll, and the compile commits the
// lowest-ranked success once every attempt below it has failed. On
// failure it returns a *CompileError aggregating the lowest-ranked
// attempt's failure and the best-ranked failure per stage, deterministic
// for every Workers value.
//
// The context is checked at every pipeline stage boundary and before
// each attempt is claimed, so cancellation (or a deadline) aborts a
// compile mid-pipeline with a *CompileError wrapping diag.ErrCanceled —
// the original context error stays in the cause chain for errors.Is.
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

	// Each worker of the window routes on one session, created on first
	// use and re-targeted by every attempt it runs, never shared across
	// compiles; an attempt that routed drops it (runRoute), since it is
	// about to win and its session would otherwise stay live through
	// replicate.
	var (
		mu       sync.Mutex
		turn     = sync.NewCond(&mu) // broadcast whenever an attempt finishes
		next     int                 // rank index of the next attempt to claim
		finished int                 // attempts finished, for the launch generation
		best     = len(atts)         // rank index of the lowest success so far
		won      *Result
		cerr     error // the caller's cancellation, once a claim saw it
		running  = make([]*attemptCtx, len(atts))
		errs     = make([]error, len(atts))
	)
	// await holds rank i until every attempt below it has finished or one
	// of them has won, so only an attempt about to win stamps a mapping.
	await := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		for best > i && slices.ContainsFunc(running[:i], func(a *attemptCtx) bool { return a != nil }) {
			turn.Wait()
		}
	}
	claim := func() *attemptCtx {
		mu.Lock()
		defer mu.Unlock()
		for next == 1 && finished == 0 { // width 1 until attempt 1 has failed
			turn.Wait()
		}
		if next >= best || cerr != nil {
			return nil
		}
		if cerr = ctx.Err(); cerr != nil {
			return nil
		}
		i := next
		next++
		running[i] = &attemptCtx{Context: ctx, idx: i, gen: finished + 1, await: func() { await(i) }}
		return running[i]
	}
	run := func(a *attemptCtx, ses *route.Session) *route.Session {
		if ses == nil {
			ses = new(route.Session)
		}
		i := a.idx
		c := front.forAttempt(atts[i], i+1, a, ses)
		err := attemptStages.Run(c)
		mu.Lock()
		defer mu.Unlock()
		defer turn.Broadcast()
		finished++
		running[i] = nil
		if err != nil {
			errs[i] = err
		} else if i < best {
			best, won = i, c.buildResult()
			for _, a := range running[i+1 : next] {
				if a != nil {
					a.superseded.Store(true)
				}
			}
		}
		return c.ses // nil once it routed: the worker's next attempt starts anew
	}
	w := min(opts.Workers, len(atts))
	par.ForEach(w, w, func(int) {
		var ses *route.Session
		for a := claim(); a != nil; a = claim() {
			ses = run(a, ses)
		}
	})
	// Every attempt below the lowest success failed on its own: the winner
	// polled the caller's context after awaiting them (Stage.Ordered).
	if won != nil {
		won.Stats.Attempts = best + 1
		won.Stats.Total = time.Since(start)
		return won, nil
	}
	// A cancellation mid-search masquerades as "every attempt failed";
	// surface it as such so callers dispatch on ErrCanceled, not on
	// whichever attempt happened to fail first.
	if cerr == nil {
		cerr = ctx.Err()
	}
	if cerr != nil {
		return nil, canceledCompileError(k.Name, fab.String(), len(atts), cerr)
	}
	return nil, newCompileError(k.Name, fab.String(), len(atts), errs)
}

// attemptCtx is one attempt's view of the compile's context. Err reports
// errSuperseded once a lower-ranked attempt has won and otherwise
// delegates, so every poll still reaches the caller's context.
type attemptCtx struct {
	context.Context
	idx        int    // rank index, 0-based
	gen        int    // launch generation: 1 + the attempts finished when it was claimed
	await      func() // blocks until the attempt may run an Ordered stage
	superseded atomic.Bool
}

// errSuperseded stops an attempt that a lower-ranked success has made
// moot. It is no failure: the pipeline emits no span for it.
var errSuperseded = errors.New("himap: attempt superseded by a lower-ranked success")

func (c *attemptCtx) Err() error {
	if c.superseded.Load() {
		return errSuperseded
	}
	return c.Context.Err()
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
		if len(out) >= maxSchemes {
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
	return fmt.Sprintf("%s on %s: block %v, sub-CGRA (%d,%d,%d), II_B %d, %d unique iters, U = %.1f%%",
		r.Kernel.Name, r.Fabric, r.Block, r.Sub.S1, r.Sub.S2, r.Sub.Depth, r.IIB,
		r.UniqueIters, r.Utilization*100)
}
