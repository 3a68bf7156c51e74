package himap

import (
	"context"
	"fmt"

	"himap/internal/diag"
)

// Mapper selects which compilation flow a Request runs; Backends lists
// the three names CompileRequest dispatches on.
type Mapper string

const (
	// MapperHiMap is the hierarchical flow of the paper (Algorithm 1):
	// IDFG → sub-CGRA mapping, systolic scheme search, place, route,
	// replicate. The zero Mapper value means MapperHiMap.
	MapperHiMap Mapper = "himap"
	// MapperConventional is the flat DFG → MRRG simulated-annealing
	// mapper the paper evaluates against (the "BHC" stand-in).
	MapperConventional Mapper = "conventional"
	// MapperExact is the branch-and-bound exact mapper: iterative
	// deepening on II from the static lower bound, with an optimality
	// certificate in Result.Optimality when the minimum is proved. Meant
	// for small blocks — it is the quality oracle the heuristic flows are
	// measured against, not a production compiler.
	MapperExact Mapper = "exact"
)

// Request is the unified compilation request: one kernel, one target
// fabric, one mapper, and that mapper's tuning options. It is the single
// input type of CompileRequest.
type Request struct {
	// Kernel is the loop kernel to map. Required; a nil Kernel fails with
	// an error wrapping ErrInvalidRequest for every mapper.
	Kernel *Kernel
	// Fabric is the target architecture. Fabric{CGRA: cg} reproduces the
	// classic mesh/all-memory model.
	Fabric Fabric
	// Mapper selects the flow; the zero value is MapperHiMap.
	Mapper Mapper
	// Options tunes the HiMap flow (ignored by the other mappers).
	Options Options
	// Block is the unrolled block extent per loop dimension, used by
	// MapperConventional (nil defaults to Kernel.UniformBlock(4)) and
	// MapperExact (nil defaults to Kernel.UniformBlock(2)); the HiMap
	// flow derives its own block from the systolic scheme.
	Block []int
	// Baseline tunes the conventional flow (ignored by the other mappers).
	Baseline BaselineOptions
	// Exact tunes the exact flow (ignored by the other mappers).
	Exact ExactOptions
}

// CompileRequest is the canonical compilation entry point: it dispatches
// the request to the requested mapper and stamps the mapper's name into
// Result.Backend. It honors ctx for
// cancellation and deadlines (a canceled compile fails with an error
// wrapping ErrCanceled). A nil ctx is treated as context.Background().
//
// For MapperHiMap the Result is the familiar hierarchical mapping. For
// MapperConventional the shared fields (Kernel, Fabric, Block,
// Config, Utilization) are filled from the conventional mapping and
// Result.Conventional holds the full *BaselineResult. For MapperExact
// the shared fields are filled from the exact mapping, Result.Exact
// holds the full *ExactResult, and Result.Optimality carries the
// certificate. Unset fields of other flows stay nil/zero.
func CompileRequest(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Kernel == nil {
		return nil, diag.Failf(diag.ErrInvalidRequest, "nil kernel").
			Stamp("request", "", req.Fabric.String(), 0)
	}
	m := req.Mapper
	if m == "" {
		m = MapperHiMap
	}
	var compile func(context.Context, Request) (*Result, error)
	switch m {
	case MapperHiMap:
		compile = compileHiMap
	case MapperConventional:
		compile = compileConventional
	case MapperExact:
		compile = compileExact
	default:
		return nil, fmt.Errorf("himap: unknown mapper %q (want %s)", req.Mapper, BackendNames())
	}
	res, err := compile(ctx, req)
	if err != nil {
		return nil, err
	}
	res.Backend = string(m)
	return res, nil
}
