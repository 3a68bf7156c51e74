// Package ctxflow is the golden fixture for the cancellation-flow
// analyzer: every unbounded loop of a context-taking function must poll
// cancellation on its spine — directly, or by handing the context to a
// callee that uses it — and the received context may only be replaced
// by context.Background/TODO under an explicit nil guard. Bounded loops
// — constant bounds, len/cap bounds, and single-assignment locals
// initialized from those — are exempt.
package ctxflow

import (
	"context"

	"ctxflow/sub"
)

// Solve is the fixture's entry point.
func Solve(ctx context.Context, n int) int {
	if ctx == nil {
		ctx = context.Background() // nil guard: allowed
	}
	total := 0
	for r := 0; r < n; r++ { // want "unbounded loop in Solve"
		total += r
	}
	for i := 0; i < 64; i++ { // constant bound: fine
		total += i
	}
	rounds := 8
	for r := 0; r < rounds; r++ { // single-assignment constant local: fine
		total += r
	}
	total += descend(ctx, n)
	total += pump(ctx, n)
	total += deaf(ctx, n)
	total += nested(ctx, n)
	total += droppy(ctx, n)
	total += waived(ctx, n)
	total += sub.Chain(ctx, n)
	total += sub.Spin(ctx, n)
	return total
}

// descend mirrors the exact-search descent loop: unbounded, but a
// stride poll on the spine bounds cancellation latency.
func descend(ctx context.Context, n int) int {
	steps := 0
	for {
		steps++
		if steps&255 == 0 {
			if ctx.Err() != nil {
				return steps
			}
		}
		if steps > n {
			return steps
		}
	}
}

// pump polls through a callee: poller's declaration uses the context it
// receives, so the forwarding call on the spine counts.
func pump(ctx context.Context, n int) int {
	i := 0
	for {
		if poller(ctx) || i > n {
			return i
		}
		i++
	}
}

func poller(ctx context.Context) bool { return ctx.Err() != nil }

// deaf forwards its context to a callee that cannot look at it: the
// one-hop rule reads ignores' declaration and gives no credit.
func deaf(ctx context.Context, n int) int {
	i := 0
	for { // want "unbounded loop in deaf"
		ignores(ctx)
		if i > n {
			return i
		}
		i++
	}
}

func ignores(_ context.Context) {}

// nested polls on the outer spine only — the inner loop must still
// poll for itself (the outer check never runs while it spins).
func nested(ctx context.Context, n int) int {
	t := 0
	for {
		if ctx.Err() != nil {
			return t
		}
		for j := 0; j < n; j++ { // want "unbounded loop in nested"
			t += j
		}
	}
}

// droppy severs cancellation below the API boundary, twice.
func droppy(ctx context.Context, n int) int {
	bg := context.Background() // want "droppy drops its received context with context.Background"
	td := context.TODO()       // want "droppy drops its received context with context.TODO"
	_, _ = bg, td
	_ = ctx
	return n
}

// waived carries an accepted exception with a reason.
func waived(ctx context.Context, n int) int {
	_ = ctx
	t := 0
	//lint:ignore ctxflow probe loop bounded by fabric size at every call site
	for i := 0; i < n; i++ {
		t += i
	}
	return t
}

// orphan has no caller: it is checked like every other function that
// takes a context.
func orphan(ctx context.Context, n int) int {
	_ = ctx
	t := 0
	for i := 0; i < n; i++ { // want "unbounded loop in orphan"
		t++
	}
	return t
}
