package himap_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"himap"
)

// TestCancellationLatencyBounded compiles the FW kernel — the largest
// stock kernel, whose conventional anneal would otherwise run tens of
// thousands of moves per II attempt — under an already-canceled context
// and asserts the compile both fails with ErrCanceled and returns after
// a bounded number of cancellation polls. The context is canceled from
// its first poll, so the compile returns at the II loop's entry check and
// never enters the anneal, a routing round or (for the other mappers) the
// exact descent: what this proves is that the entry path honors a
// canceled context and does no work proportional to the workload. A poll
// dropped from inside a hot loop is TestCancellationLatencyMidRun's job.
func TestCancellationLatencyBounded(t *testing.T) {
	const workers = 4
	ctx := &flipCtx{flipAt: 1}
	res, err := himap.CompileRequest(ctx, himap.Request{
		Kernel: himap.KernelFW(),
		Fabric: himap.DefaultFabric(4, 4),
		Mapper: himap.MapperConventional,
		Options: himap.Options{
			Workers: workers,
			Memo:    himap.NewMemo(), // cold cache: the canceled stages really run
		},
	})
	if err == nil {
		t.Fatalf("compile committed a mapping despite cancellation: %v", res.Summary())
	}
	if !errors.Is(err, himap.ErrCanceled) {
		t.Fatalf("errors.Is(err, ErrCanceled) = false: %v", err)
	}
	// Every polling site observes the cancellation on its first poll and
	// returns; a generous per-site allowance still stays far below even
	// one fully-annealed II attempt's poll count.
	if got, limit := ctx.polls, int64(16*(workers+2)); got == 0 || got > limit {
		t.Fatalf("canceled compile polled ctx.Err %d times, want 1..%d", got, limit)
	}
}

// flipCtx implements context.Context with an instrumented Err: it counts
// how often it is polled, reports nil until its flipAt-th poll and
// context.Canceled from then on (flipAt 0 = never, 1 = canceled from the
// start). Done returns nil, so the only way a loop can observe the
// cancellation is an explicit Err poll on its spine — exactly the
// discipline the ctxflow analyzer enforces — and the polls made after
// the flip measure cancellation latency: a compile that kept working
// would keep polling once per stride. It is also the run's Tracer,
// stamping every span with the polls made so far, so the polls a stage
// made while it ran can be read off the span stream.
type flipCtx struct {
	mu     sync.Mutex
	polls  int64
	flipAt int64
	spans  []stampedSpan

	// stopAt, when set, makes this a reference run: the first span it
	// accepts is kept in ref and the context flips at the next poll.
	stopAt func(himap.TraceSpan) bool
	ref    *stampedSpan
}

type stampedSpan struct {
	himap.TraceSpan
	from, to int64 // polls made when the previous span, and this one, were emitted
}

func (c *flipCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *flipCtx) Done() <-chan struct{}       { return nil }
func (c *flipCtx) Value(any) any               { return nil }
func (c *flipCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.flipAt > 0 && c.polls >= c.flipAt {
		return context.Canceled
	}
	return nil
}

func (c *flipCtx) Emit(s himap.TraceSpan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp := stampedSpan{TraceSpan: s, to: c.polls}
	if n := len(c.spans); n > 0 {
		sp.from = c.spans[n-1].to
	}
	c.spans = append(c.spans, sp)
	if c.ref == nil && c.stopAt != nil && c.stopAt(s) {
		c.ref, c.flipAt = &sp, c.polls+1
	}
}

// TestCancellationLatencyMidRun cancels each mapper from inside its long
// loop — the exact descent, the SA anneal, a PathFinder negotiation —
// and bounds the work done after the cancellation, in two runs per
// mapper. The reference run stops at the first span of the loop's stage
// whose work counter reaches minWork and checks that the loop polled at
// least once per stride of that work: work <= stride x the polls made
// while the stage ran. The second run flips the context halfway through
// the loop's polls and must fail with ErrCanceled within maxAfter
// further polls — every further stride of work would cost one — and may
// emit a span of that stage after the flip only if its work stayed
// within a stride of the flip and below the reference's. Only the HiMap
// pipeline emits a span for a canceled stage (the route span, with the
// rounds it got through); for the other two the poll bound is the work
// bound, and a search or place span after the flip means the loop ran on.
func TestCancellationLatencyMidRun(t *testing.T) {
	cases := []struct {
		name     string
		stage    string // the long loop's span ...
		counter  string // ... its work counter ...
		stride   int64  // ... and the work the loop may do between polls
		minWork  int64
		maxAfter int64 // polls allowed after the flip
		req      func(himap.Tracer) himap.Request
		// window: attempts run concurrently, so the polls between two
		// spans are several loops' and only the poll bound applies.
		window bool
	}{
		// 46,833 decisions and 102 routed leaves at II 2. The flip poll,
		// the next stride poll and the one that words the error make two
		// after the flip; each leaf the last stride reaches adds one (its
		// route is refused at the first round), hence the allowance.
		{"exact", "search", "explored", 256, 10000, 16, func(tr himap.Tracer) himap.Request {
			return himap.Request{
				Kernel: himap.KernelFW(), Mapper: himap.MapperExact,
				Fabric: himap.Fabric{CGRA: himap.DefaultCGRA(4, 4), Mem: himap.MemBoundary},
				Exact:  himap.ExactOptions{Tracer: tr},
			}
		}, false},
		// The first placement: the anneal's moves (1500·N + 2·N² for the
		// N-node DFG) take fewer polls than the seeding pass that shares
		// its span (one per placement try), so the stride bound here is
		// loose; TestAnnealPollsEveryStride (internal/baseline) pins the
		// anneal's own polls. The flip still lands inside the anneal.
		{"conventional", "place", "moves", 4096, 1, 2, func(tr himap.Tracer) himap.Request {
			return himap.Request{
				Kernel: himap.KernelFW(), Mapper: himap.MapperConventional,
				Fabric:   himap.DefaultFabric(4, 4),
				Block:    []int{2, 2, 2},
				Baseline: himap.BaselineOptions{Tracer: tr},
			}
		}, false},
		// 34 of 36 attempts fail; the first to negotiate all 8 rounds is used.
		{"himap", "route", "rounds", 1, 8, 2, fwNarrow(1), false},
		// The same compile in a speculative window of four: each of the
		// other three in-flight attempts stops at its next poll and the
		// first claim after the flip polls once and closes the window (4
		// measured, one spare). A window that kept claiming would poll at
		// least once per attempt left.
		{"himap/workers=4", "route", "rounds", 1, 8, 5, fwNarrow(4), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := &flipCtx{stopAt: func(s himap.TraceSpan) bool {
				return s.Stage == tc.stage && s.Counters[tc.counter] >= tc.minWork
			}}
			_, _ = himap.CompileRequest(ref, tc.req(ref)) // ends canceled, by stopAt
			if ref.ref == nil {
				t.Fatalf("no %s span with %s >= %d in the uncanceled run", tc.stage, tc.counter, tc.minWork)
			}
			work, polls := ref.ref.Counters[tc.counter], ref.ref.to-ref.ref.from
			if work > tc.stride*polls && !tc.window {
				t.Fatalf("%s did %d %s between %d polls: more than one stride of %d per poll",
					tc.stage, work, tc.counter, polls, tc.stride)
			}

			// The loop's own polls are the last work/stride of the span's
			// (the anneal's seeding pass polls before them): flip halfway in.
			run := &flipCtx{flipAt: ref.ref.to - work/(2*tc.stride)}
			res, err := himap.CompileRequest(run, tc.req(run))
			if err == nil {
				t.Fatalf("compile committed a mapping despite cancellation: %v", res.Summary())
			}
			if !errors.Is(err, himap.ErrCanceled) {
				t.Fatalf("errors.Is(err, ErrCanceled) = false: %v", err)
			}
			if after := run.polls - run.flipAt; after > tc.maxAfter {
				t.Errorf("%d polls after the flip, want <= %d: the loop kept working", after, tc.maxAfter)
			}
			for _, s := range run.spans {
				if s.Stage != tc.stage || s.to < run.flipAt || tc.window {
					continue
				}
				got, limit := s.Counters[tc.counter], tc.stride*(run.flipAt-s.from)
				if got > limit || got >= work {
					t.Errorf("%s span after the flip reports %s=%d, want <= %d and < %d",
						tc.stage, tc.counter, got, limit, work)
				}
			}
		})
	}
}

// fwNarrow is the negotiated-congestion compile of
// TestCancellationLatencyMidRun at the given Workers.
func fwNarrow(workers int) func(himap.Tracer) himap.Request {
	return func(tr himap.Tracer) himap.Request {
		return himap.Request{
			Kernel: himap.KernelFW(), Mapper: himap.MapperHiMap,
			Fabric:  himap.Fabric{CGRA: himap.DefaultCGRA(8, 8), Bandwidth: himap.BWNarrowRF},
			Options: himap.Options{Workers: workers, Tracer: tr},
		}
	}
}

// TestConventionalCanceledDuringRoute cancels the conventional mapper
// between its placement and its route, so the first poll that sees the
// cancellation is a routing round's: the compile must still carry the
// context's own error in its chain, as every canceled compile does.
func TestConventionalCanceledDuringRoute(t *testing.T) {
	ctx := &flipCtx{stopAt: func(s himap.TraceSpan) bool { return s.Stage == "place" && s.Err == "" }}
	_, err := himap.CompileRequest(ctx, himap.Request{
		Kernel: himap.KernelMVT(), Mapper: himap.MapperConventional,
		Fabric: himap.DefaultFabric(4, 4), Block: []int{2, 2},
		Baseline: himap.BaselineOptions{Tracer: ctx},
	})
	if ctx.ref == nil {
		t.Fatal("no placement reached the router")
	}
	if !errors.Is(err, himap.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled in the route: %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if last := ctx.spans[len(ctx.spans)-1]; last.Stage != "route" || last.Attempt != ctx.ref.Attempt {
		t.Errorf("last span %s at II %d, want the route of II %d", last.Stage, last.Attempt, ctx.ref.Attempt)
	}
}

// TestNoClaimAfterTheWinner: at Workers=1 the compile ends with its
// winner. MVT on 16x16 wins at attempt 2 of several, and no rank above it
// is claimed, so the caller's context is not polled after the winner's
// last span.
func TestNoClaimAfterTheWinner(t *testing.T) {
	ctx := &flipCtx{}
	res, err := himap.CompileRequest(ctx, himap.Request{
		Kernel: himap.KernelMVT(), Fabric: himap.DefaultFabric(16, 16),
		Options: himap.Options{Workers: 1, Memo: himap.NewMemo(), Tracer: ctx},
	})
	if err != nil {
		t.Fatal(err)
	}
	last := ctx.spans[len(ctx.spans)-1]
	if last.Attempt != res.Stats.Attempts || last.Stage != "validate" {
		t.Fatalf("the last span is attempt %d's %s, want the winner %d's validate", last.Attempt, last.Stage, res.Stats.Attempts)
	}
	if ctx.polls != last.to {
		t.Errorf("%d polls after the winner's last span, want none", ctx.polls-last.to)
	}
}
