package himap

import (
	"context"
	"errors"
	"fmt"
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
	// (H,S) scheme search is sharded across Workers goroutines, and once
	// attempt 1 has failed the remaining (sub-mapping, scheme) attempts
	// run speculatively on up to Workers goroutines, claimed in rank
	// order; the compile commits the lowest-ranked attempt that succeeds.
	// The emitted mapping is therefore bit-identical for every Workers
	// value; only wall-clock changes.
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
// stages: attempt 1 alone on the caller's goroutine, then, once it has
// failed, the rest on up to Workers goroutines (par.ForEach), claimed in
// rank order with no barrier between them. A success stops every
// higher-ranked attempt at its next poll, and once every attempt has
// stopped the compile commits the lowest-ranked success. On failure it
// returns a *CompileError aggregating the lowest-ranked attempt's failure
// and the best-ranked failure per stage, deterministic for every Workers
// value. A panic in an attempt reaches the caller once the others stop.
//
// The context is checked at every pipeline stage boundary and before
// each attempt is claimed, so cancellation (or a deadline) aborts a
// compile mid-pipeline with a *CompileError wrapping diag.ErrCanceled —
// the original context error stays in the cause chain for errors.Is.
func CompileRequest(ctx context.Context, k *kernel.Kernel, fab arch.Fabric, opts Options) (*Result, error) {
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
	n := len(atts)

	// Routing sessions come from a free list, never shared across
	// compiles: each attempt re-targets one and hands it back, except an
	// attempt that routed, which drops its own (runRoute) since it is
	// about to win and its session would otherwise stay live through
	// replicate. At most Workers attempts hold a session at once, so
	// handing one back never blocks.
	w := &window{ctx: ctx}
	w.best.Store(int64(n))
	sessions := make(chan *route.Session, opts.Workers)
	errs := make([]error, n)
	wins := make([]*Result, n)
	run := func(i int) {
		if int64(i) > w.best.Load() || w.poll() != nil {
			return
		}
		var ses *route.Session
		select {
		case ses = <-sessions:
		default:
			ses = new(route.Session)
		}
		// Read after par.ForEach's claim, so it may count a rank above i
		// that finished in between; at the claim at most i had finished.
		wave := min(int(w.finished.Load())+1, i+1)
		c := front.forAttempt(atts[i], &attemptCtx{Context: ctx, w: w, idx: i}, i+1, wave, ses)
		if errs[i] = attemptStages.Run(c); errs[i] == nil {
			wins[i] = c.buildResult()
			w.lower(int64(i))
		}
		w.finished.Add(1)
		if c.ses != nil {
			sessions <- c.ses
		}
	}
	if run(0); wins[0] == nil {
		par.ForEach(opts.Workers, n-1, func(j int) { run(j + 1) })
	}
	// A cancellation mid-search masquerades as "every attempt failed", or
	// as a success above an attempt it stopped; surface it as such so
	// callers dispatch on ErrCanceled, not on whichever attempt happened
	// to fail first.
	if cerr := w.canceled.Load(); cerr != nil {
		return nil, canceledCompileError(k.Name, fab.String(), n, *cerr)
	}
	if b := w.best.Load(); b < int64(n) {
		won := wins[b]
		won.Stats.Attempts = int(b) + 1
		won.Stats.Total = time.Since(start)
		return won, nil
	}
	return nil, newCompileError(k.Name, fab.String(), n, errs)
}

// window is what the attempts of one compile share: the lowest success
// so far, the finished count, and the caller's cancellation once any
// poll or claim has seen it.
type window struct {
	ctx      context.Context
	best     atomic.Int64 // rank index of the lowest success so far; the attempt count while none
	finished atomic.Int64 // attempts finished, for the launch generation
	canceled atomic.Pointer[error]
}

// poll reports the caller's cancellation, polling its context only until
// some poll has seen it.
func (w *window) poll() error {
	if p := w.canceled.Load(); p != nil {
		return *p
	}
	err := w.ctx.Err()
	if err != nil {
		w.canceled.CompareAndSwap(nil, &err)
	}
	return err
}

// lower records a success at rank index i.
func (w *window) lower(i int64) {
	for b := w.best.Load(); i < b && !w.best.CompareAndSwap(b, i); b = w.best.Load() {
	}
}

// attemptCtx is one attempt's view of the compile's context. Err reports
// errSuperseded once a lower-ranked attempt has won and otherwise the
// caller's cancellation.
type attemptCtx struct {
	context.Context
	w   *window
	idx int // rank index, 0-based
}

// errSuperseded stops an attempt that a lower-ranked success has made
// moot. It is no failure: the pipeline emits no span for it.
var errSuperseded = errors.New("himap: attempt superseded by a lower-ranked success")

func (c *attemptCtx) superseded() bool { return c.w.best.Load() < int64(c.idx) }

func (c *attemptCtx) Err() error {
	if c.superseded() {
		return errSuperseded
	}
	return c.w.poll()
}

// candidateSchemes ranks the systolic schemes with axes space dimensions
// by the systolic search over a probe block, keeping the best maxSchemes.
func candidateSchemes(k *kernel.Kernel, deps []ir.IterVec, axes, workers int) []systolic.Scheme {
	cands := systolic.SearchN(deps, k.UniformBlock(3), axes, workers)
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
// user's inner block, and pinned dimensions keep their pins. A
// block past the unroll wall is refused here, before the scheme checks
// that walk it.
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
	// A pinned dimension is at least MinBlock (Kernel.Validate), so only
	// a free one can fall short.
	min := max(k.MinBlock, 1)
	for d, b := range block {
		if b < min {
			return nil, diag.Failf(diag.ErrBlockTooSmall,
				"block dim %d = %d below minimum %d", d, b, min)
		}
	}
	if err := k.CheckUnroll(block); err != nil {
		return nil, err
	}
	return block, nil
}

// Summary renders a one-line result description.
func (r *Result) Summary() string {
	return fmt.Sprintf("%s on %s: block %v, sub-CGRA (%d,%d,%d), II_B %d, %d unique iters, U = %.1f%%",
		r.Kernel.Name, r.Fabric, r.Block, r.Sub.S1, r.Sub.S2, r.Sub.Depth, r.IIB,
		r.UniqueIters, r.Utilization*100)
}
