// Package par is the pipeline's coarse-grained parallelism substrate: a
// bounded worker pool over index spaces, used to run independent
// simulated-annealing chains (internal/baseline), shard the systolic
// (H,S) scheme search (internal/systolic), run HiMap's speculative
// attempts in rank order (internal/himap), and fan out kernel×size
// experiment sweeps (internal/exp).
//
// Determinism contract: ForEach hands out indices but imposes no
// completion order; callers that need deterministic results write into
// the i-th slot of a pre-sized slice and reduce in index order
// afterwards. With w == 1 every call degenerates to a plain sequential
// loop on the calling goroutine — byte-identical behavior to code that
// never heard of goroutines, which is how the Workers=1 reproducibility
// guarantee is kept.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n > 0 is taken as-is, anything
// else (the zero value of an Options field) means "all available
// parallelism", i.e. runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) using at most w concurrent
// workers and returns when all calls have finished. Indices are claimed
// in order from a shared counter, so early indices start first, but
// completion order is unspecified for w > 1. With w <= 1 (or n <= 1) the
// loop runs sequentially on the calling goroutine.
//
// fn must be safe to call concurrently with itself for w > 1; panics in
// workers propagate to the caller after all workers stop.
func ForEach(w, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
					next.Store(int64(n)) // drain remaining work
				}
			}()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Map runs fn over [0, n) on w workers and returns the results in index
// order — the deterministic-collection idiom packaged up.
func Map[T any](w, n int, fn func(int) T) []T {
	out := make([]T, n)
	ForEach(w, n, func(i int) { out[i] = fn(i) })
	return out
}
