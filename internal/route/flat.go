package route

import (
	"context"
	"errors"
	"time"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/mrrg"
)

// ResourceMII is the static resource bound on the II of a flat mapping
// of d onto fab: FU ops (compute, plus route pseudo-ops when routesOnFU,
// as in the flat space where routes occupy FU slots as moves) against
// the PE count, and loads and stores each against the memory-capable PE
// count. The block DFG is acyclic, so the recurrence bound is 1. Memory
// ops on a fabric with no memory-capable PE fail with an unstamped
// diag.ErrMemPortInfeasible.
func ResourceMII(d *ir.DFG, fab arch.Fabric, routesOnFU bool) (int, error) {
	var kinds [256]int
	for _, n := range d.Nodes {
		kinds[n.Kind]++
	}
	nfu, nload, nstore := d.NumCompute(), kinds[ir.OpLoad], kinds[ir.OpStore]
	if routesOnFU {
		nfu += kinds[ir.OpRoute]
	}
	pes, mem := fab.NumPEs(), fab.NumMemPEs()
	if mem == 0 && nload+nstore > 0 {
		return 0, diag.Failf(diag.ErrMemPortInfeasible,
			"%d loads and %d stores on a fabric with no memory-capable PE", nload, nstore)
	}
	mem = max(mem, 1) // no memory PE, no memory op: the two terms are 0
	return max(1, (nfu+pes-1)/pes, (nload+mem-1)/mem, (nstore+mem-1)/mem), nil
}

// FlatResult holds the fields every flat backend's result shares.
type FlatResult struct {
	Kernel      *kernel.Kernel
	Fabric      arch.Fabric
	Block       []int
	II          int
	Config      *arch.Config
	Utilization float64 // compute ops over the II's FU slots
	Time        time.Duration
}

// A Step is a flat backend's per-II step; Deepen runs the rest. It
// maps d at II ii through ses, re-targeted to ii's MRRG: a failure
// wrapping diag.ErrCanceled ends the deepening, any other moves it to
// ii+1 and is its error if ii is the last.
type Step func(ctx context.Context, d *ir.DFG, ii int, ses *Session) (*arch.Config, error)

// Flat is a flat backend's setting of Deepen: the node wall BuildDFG
// enforces, the last II tried, the mapper's per-II stage (stamped on the
// failures Deepen raises), the class a ResourceMII past MaxII fails with
// and the tracer of the dfg-build span.
type Flat struct {
	MaxNodes, MaxII int
	Stage           string
	PastMaxII       error
	Tracer          diag.Tracer
}

// Deepen is the flat backends' one skeleton, after CGRA-Tool's Mapper:
// it validates the request, unrolls the block DFG under the node wall,
// and calls step from ResourceMII (routes on FUs) up to f.MaxII,
// polling ctx before each II and re-targeting one Session to each II's
// MRRG; the first routed II wins. ctx and k must be non-nil (the root
// CompileRequest is the one nil-tolerant entry). Failures are stamped
// with the kernel, the fabric and, unless the step stamped its own,
// f.Stage and the II: a cancellation before an II is diag.ErrCanceled
// at that II, with the context's error as its cause; a bound past
// f.MaxII is f.PastMaxII at the bound; out of IIs, the last II's
// failure is returned.
func Deepen(ctx context.Context, k *kernel.Kernel, fab arch.Fabric, block []int, f Flat, step Step) (*FlatResult, error) {
	if err := fab.Validate(); err != nil {
		return nil, err
	}
	start := time.Now() //lint:ignore determinism wall-clock span timing only; does not influence mapping
	d, err := BuildDFG(k, fab, block, f.MaxNodes, f.Tracer)
	if err != nil {
		return nil, err
	}
	mii, err := ResourceMII(d, fab, true)
	if err != nil {
		return nil, diag.Classify(err, diag.ErrMemPortInfeasible).Stamp(f.Stage, k.Name, fab.String(), 0)
	}
	if mii > f.MaxII {
		return nil, diag.Failf(f.PastMaxII, "minimum II %d exceeds the II bound %d", mii, f.MaxII).
			Stamp(f.Stage, k.Name, fab.String(), mii)
	}
	var last *diag.StageError
	ses := new(Session)
	for ii := mii; ii <= f.MaxII; ii++ {
		if err := ctx.Err(); err != nil {
			return nil, diag.Fail(diag.ErrCanceled, err).Stamp(f.Stage, k.Name, fab.String(), ii)
		}
		cfg, err := step(ctx, d, ii, ses.Reset(mrrg.New(fab, ii)))
		if err == nil {
			return &FlatResult{Kernel: k, Fabric: fab, Block: block, II: ii, Config: cfg,
				Utilization: float64(d.NumCompute()) / float64(fab.NumPEs()*ii),
				Time:        time.Since(start)}, nil
		}
		last = diag.Classify(err, diag.ErrPlacementInfeasible).Stamp(f.Stage, k.Name, fab.String(), ii)
		if errors.Is(err, diag.ErrCanceled) {
			break
		}
	}
	return nil, last
}
