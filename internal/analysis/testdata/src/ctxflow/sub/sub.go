// Package sub exercises ctxflow across a package boundary: both
// functions are checked in their own package, and Chain's spine poll is
// credited through done's declaration.
package sub

import "context"

// Chain polls through the package-local helper on its spine.
func Chain(ctx context.Context, n int) int {
	i := 0
	for {
		if done(ctx) || i > n {
			return i
		}
		i++
	}
}

func done(ctx context.Context) bool { return ctx.Err() != nil }

// Spin never polls.
func Spin(ctx context.Context, n int) int {
	total := 0
	for r := 0; r < n; r++ { // want "unbounded loop in Spin"
		total += r
	}
	return total
}
