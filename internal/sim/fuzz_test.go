package sim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"himap/internal/arch"
	"himap/internal/himap"
	"himap/internal/ir"
	"himap/internal/kernel"
)

// randomKernel generates a random well-formed uniform-recurrence kernel:
// a chain of compute ops whose operands are drawn from earlier ops
// (intra-iteration), unit-distance dependencies (guarded at the block
// boundary by memory or constant sources), memory loads, and constants,
// with a store on the final op. By construction every specification is
// valid; compiling and cycle-accurately validating it probes the whole
// pipeline the way a fuzzer would.
func randomKernel(rng *rand.Rand, idx int) *kernel.Kernel {
	dim := 2 + rng.Intn(2) // 2 or 3 loop levels
	nops := 1 + rng.Intn(4)
	k := &kernel.Kernel{
		Name: fmt.Sprintf("FUZZ%d", idx),
		Desc: "randomized uniform recurrence",
		Dim:  dim, MinBlock: 2, Suite: "fuzz",
	}
	fullMap := func() kernel.AffineMap {
		rows := make([][]int, dim)
		for d := 0; d < dim; d++ {
			row := make([]int, dim+1)
			row[d] = 1
			rows[d] = row
		}
		return kernel.AM(dim, rows...)
	}
	k.Tensors = []kernel.TensorSpec{
		{Name: "IN", Dims: func(b []int) []int { return append([]int{}, b...) }},
		{Name: "OUT", Out: true, Dims: func(b []int) []int { return append([]int{}, b...) }},
	}
	kinds := []ir.OpKind{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpMin, ir.OpMax, ir.OpXor}

	operand := func(op int) kernel.Input {
		switch choice := rng.Intn(4); {
		case choice == 0 && op > 0:
			// Intra-iteration value from an earlier op.
			return kernel.Fixed(kernel.Same(rng.Intn(op)))
		case choice == 1:
			// Unit-distance dependence on a random earlier-or-same op along
			// a random dimension, memory-guarded at the boundary.
			d := rng.Intn(dim)
			dist := make([]int, dim)
			dist[d] = 1
			src := rng.Intn(nops) // may reference a later op across iterations
			return kernel.In(
				kernel.Case{When: kernel.First(d), Src: kernel.Mem("IN", fullMap())},
				kernel.Case{When: kernel.Always(), Src: kernel.Source{Kind: kernel.SrcDep, Op: src, Dist: dist}},
			)
		case choice == 2:
			return kernel.Fixed(kernel.Mem("IN", fullMap()))
		default:
			return kernel.Fixed(kernel.Const(int64(rng.Intn(7) - 3)))
		}
	}

	for op := 0; op < nops; op++ {
		body := kernel.BodyOp{
			Name: fmt.Sprintf("op%d", op),
			Kind: kinds[rng.Intn(len(kinds))],
			A:    operand(op),
		}
		// Port B: constants only via port 1; avoid double-const (A const and
		// B const is fine — still a valid op).
		if rng.Intn(3) == 0 {
			body.B = kernel.Fixed(kernel.Const(int64(rng.Intn(9) - 4)))
		} else {
			body.B = operand(op)
		}
		if op == nops-1 {
			body.Stores = []kernel.StoreRule{{When: kernel.Always(), Tensor: "OUT", Map: fullMap()}}
		}
		k.Body = append(k.Body, body)
	}
	// Port-0 constants are rejected by the builder; rewrite any A-side
	// constants into loads (cheap normalization instead of re-rolling).
	for i := range k.Body {
		for ci := range k.Body[i].A {
			if k.Body[i].A[ci].Src.Kind == kernel.SrcConst {
				k.Body[i].A[ci].Src = kernel.Mem("IN", fullMap())
			}
		}
	}
	return k
}

// TestFuzzRandomKernels compiles and cycle-accurately validates a
// population of randomized kernels. Kernels whose dependence structure
// admits no systolic mapping are allowed to fail compilation (that is a
// legitimate, reported outcome); any kernel that compiles must validate.
func TestFuzzRandomKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	compiled, failed := 0, 0
	n := 25
	if testing.Short() {
		n = 8
	}
	for i := 0; i < n; i++ {
		k := randomKernel(rng, i)
		if err := k.Validate(); err != nil {
			t.Fatalf("%s: generator produced invalid spec: %v", k.Name, err)
		}
		// The spec must at least execute under the golden semantics.
		block := k.UniformBlock(3)
		inputs := k.DefaultInputs(block, int64(i))
		if _, err := k.Golden(block, inputs); err != nil {
			t.Fatalf("%s: golden: %v", k.Name, err)
		}
		res, err := himap.CompileRequest(context.Background(), k, arch.DefaultFabric(4, 4), himap.Options{})
		if err != nil {
			failed++
			continue
		}
		compiled++
		if err := Validate(res.Config, k, res.Block, 2, int64(1000+i)); err != nil {
			t.Errorf("%s: compiled but failed validation: %v\n  %s", k.Name, err, res.Summary())
		}
	}
	t.Logf("fuzz: %d compiled+validated, %d had no valid mapping", compiled, failed)
	if compiled == 0 {
		t.Error("no random kernel compiled; generator or mapper too restrictive")
	}
}

// TestFuzzRandomKernelsFabrics re-runs the randomized-kernel pipeline
// probe on the non-default fabrics: the torus link provider and the
// boundary-column memory layout. As with the mesh fuzz, kernels whose
// structure admits no mapping may fail compilation, but everything that
// compiles must pass cycle-accurate validation — loads and stores
// included, which on the boundary fabric exercises the memory-capability
// constraint through placement, routing, replication, and the simulator.
func TestFuzzRandomKernelsFabrics(t *testing.T) {
	fabrics := []arch.Fabric{
		{CGRA: arch.Default(4, 4), Topology: arch.TopoTorus},
		{CGRA: arch.Default(4, 4), Topology: arch.TopoTorus, Mem: arch.MemBoundary},
	}
	for _, fab := range fabrics {
		fab := fab
		t.Run(fab.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(20260806))
			compiled, failed := 0, 0
			n := 12
			if testing.Short() {
				n = 5
			}
			for i := 0; i < n; i++ {
				k := randomKernel(rng, i)
				if err := k.Validate(); err != nil {
					t.Fatalf("%s: generator produced invalid spec: %v", k.Name, err)
				}
				res, err := himap.CompileRequest(context.Background(), k, fab, himap.Options{})
				if err != nil {
					failed++
					continue
				}
				compiled++
				if err := Validate(res.Config, k, res.Block, 2, int64(2000+i)); err != nil {
					t.Errorf("%s: compiled but failed validation on %s: %v\n  %s", k.Name, fab, err, res.Summary())
				}
			}
			t.Logf("fuzz on %s: %d compiled+validated, %d had no valid mapping", fab, compiled, failed)
			if compiled == 0 {
				t.Errorf("no random kernel compiled on %s; fabric constraints too restrictive", fab)
			}
		})
	}
}
