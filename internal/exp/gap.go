package exp

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"himap/internal/arch"
	"himap/internal/baseline"
	"himap/internal/exact"
	"himap/internal/himap"
	"himap/internal/kernel"
)

// ExactGapPoint is one row of the quality-gap study: the same small
// instance (kernel × block × fabric) mapped by the exact
// branch-and-bound solver and by the SA baseline, next to the HiMap
// flow on the same fabric (HiMap derives its own block, so its row
// carries that block and the exact lower bound recomputed for it).
type ExactGapPoint struct {
	Kernel      string `json:"kernel"`
	Size        int    `json:"size"`
	Block       []int  `json:"block"`
	ExactII     int    `json:"exact_ii"`
	Proved      bool   `json:"proved_minimal"`
	Certificate string `json:"certificate,omitempty"`
	LowerBound  int    `json:"ii_lower_bound"`
	SAII        int    `json:"sa_ii"`
	HiMapII     int    `json:"himap_ii"`
	HiMapBlock  []int  `json:"himap_block"`
	HiMapLB     int    `json:"himap_ii_lower_bound"`
}

// ExactGap maps every evaluation kernel at block size blockSize on a
// size×size fabric with the exact solver (bounded by a context deadline
// of budget per kernel; 0 = unbounded) and the SA baseline, and compiles
// the HiMap flow on the same fabric for reference. The exact column is
// the quality oracle: SAII and (when blocks match) HiMapII can never beat
// a proved-minimal ExactII.
func ExactGap(size, blockSize int, budget time.Duration) ([]ExactGapPoint, error) {
	fab := arch.DefaultFabric(size, size)
	var rows []ExactGapPoint
	for _, k := range kernel.Evaluation() {
		block := k.UniformBlock(blockSize)
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if budget > 0 {
			ctx, cancel = context.WithTimeout(ctx, budget)
		}
		eres, err := exact.CompileRequest(ctx, k, arch.DefaultFabric(size, size), block, exact.Options{})
		cancel()
		if err != nil {
			return nil, fmt.Errorf("exp: exact gap %s: %v", k.Name, err)
		}
		bres, err := baseline.CompileRequest(context.TODO(), k, arch.DefaultFabric(size, size), block, baseline.Options{Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("exp: exact gap SA %s: %v", k.Name, err)
		}
		hres, err := himap.CompileRequest(context.TODO(), k, arch.DefaultFabric(size, size), himap.Options{Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("exp: exact gap himap %s: %v", k.Name, err)
		}
		hlb, err := exact.LowerBound(k, fab, hres.Block)
		if err != nil {
			return nil, fmt.Errorf("exp: exact gap lower bound %s: %v", k.Name, err)
		}
		rows = append(rows, ExactGapPoint{
			Kernel:      k.Name,
			Size:        size,
			Block:       block,
			ExactII:     eres.II,
			Proved:      eres.Optimality.ProvedMinimal,
			Certificate: string(eres.Optimality.Certificate),
			LowerBound:  eres.Optimality.IILowerBound,
			SAII:        bres.II,
			HiMapII:     hres.IIB,
			HiMapBlock:  hres.Block,
			HiMapLB:     hlb,
		})
	}
	return rows, nil
}

// WriteGapTable renders the quality-gap rows as the text table behind
// `experiments -gap`.
func WriteGapTable(w io.Writer, rows []ExactGapPoint) {
	fmt.Fprintf(w, "Quality gap vs exact solver (SA and exact share the block; HiMap derives its own)\n")
	fmt.Fprintf(w, "%-8s %-8s %9s %-11s %4s %6s %9s %-8s %8s\n",
		"kernel", "block", "exact II", "cert", "lb", "SA II", "himap II", "block", "himap lb")
	for _, r := range rows {
		cert := r.Certificate
		if !r.Proved {
			cert = "unproven"
		}
		fmt.Fprintf(w, "%-8s %-8s %9d %-11s %4d %6d %9d %-8s %8d\n",
			r.Kernel, blockStr(r.Block), r.ExactII, cert, r.LowerBound,
			r.SAII, r.HiMapII, blockStr(r.HiMapBlock), r.HiMapLB)
	}
}

func blockStr(b []int) string {
	parts := make([]string, len(b))
	for i, v := range b {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, "x")
}
