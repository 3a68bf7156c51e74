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
		}},
		// SAMoves is set so the anneal's 256 polls outnumber the seeding
		// pass's (about 150, one per placement try) that share its span.
		{"conventional", "place", "moves", 4096, 256 * 4096, 2, func(tr himap.Tracer) himap.Request {
			return himap.Request{
				Kernel: himap.KernelFW(), Mapper: himap.MapperConventional,
				Fabric:   himap.DefaultFabric(4, 4),
				Block:    []int{2, 2, 2},
				Baseline: himap.BaselineOptions{Tracer: tr, SAMoves: 256 * 4096},
			}
		}},
		// 34 of 36 attempts fail; the first to negotiate all 8 rounds is used.
		{"himap", "route", "rounds", 1, 8, 2, func(tr himap.Tracer) himap.Request {
			return himap.Request{
				Kernel: himap.KernelFW(), Mapper: himap.MapperHiMap,
				Fabric:  himap.Fabric{CGRA: himap.DefaultCGRA(8, 8), Bandwidth: himap.BWNarrowRF},
				Options: himap.Options{Workers: 1, Tracer: tr},
			}
		}},
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
			if work > tc.stride*polls {
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
				if s.Stage != tc.stage || s.to < run.flipAt {
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
