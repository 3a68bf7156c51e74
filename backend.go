package himap

import (
	"context"
	"strings"

	"himap/internal/baseline"
	"himap/internal/exact"
	core "himap/internal/himap"
)

// Backends returns the mapper names CompileRequest dispatches on, in
// sorted order; TestBackendsDispatchTotal keeps the list and the switch
// in step.
func Backends() []Mapper {
	return []Mapper{MapperConventional, MapperExact, MapperHiMap}
}

// BackendNames renders the sorted mapper names as "a|b|c" for error
// messages and flag help.
func BackendNames() string {
	names := Backends()
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = string(n)
	}
	return strings.Join(parts, "|")
}

// compileHiMap runs the hierarchical flow (internal/himap).
func compileHiMap(ctx context.Context, req Request) (*Result, error) {
	return core.CompileRequest(ctx, req.Kernel, req.Fabric, req.Options)
}

// compileConventional runs the flat SA + PathFinder baseline
// (internal/baseline) and lifts its result into the unified Result.
func compileConventional(ctx context.Context, req Request) (*Result, error) {
	block := req.Block
	if block == nil {
		block = req.Kernel.UniformBlock(4)
	}
	res, err := baseline.CompileRequest(ctx, req.Kernel, req.Fabric, block, req.Baseline)
	if err != nil {
		return nil, err
	}
	return &Result{
		Kernel:       res.Kernel,
		Fabric:       req.Fabric,
		Block:        res.Block,
		Config:       res.Config,
		Utilization:  res.Utilization,
		Conventional: res,
	}, nil
}

// compileExact runs the branch-and-bound mapper with optimality
// certificates (internal/exact) and lifts its result into the unified
// Result.
func compileExact(ctx context.Context, req Request) (*Result, error) {
	block := req.Block
	if block == nil {
		// Exact search targets small instances; default to the smallest
		// well-formed block rather than the conventional mapper's 4.
		block = req.Kernel.UniformBlock(2)
	}
	res, err := exact.CompileRequest(ctx, req.Kernel, req.Fabric, block, req.Exact)
	if err != nil {
		return nil, err
	}
	return &Result{
		Kernel:      res.Kernel,
		Fabric:      req.Fabric,
		Block:       res.Block,
		Config:      res.Config,
		Utilization: res.Utilization,
		Optimality:  &res.Optimality,
		Exact:       res,
	}, nil
}
