// Defining a new kernel through the public DSL and mapping it with HiMap.
//
// The kernel is a 2-D weighted running reduction ("smooth"):
//
//	for i, j:
//	    u(i,j) = u(i,j-1)*W[i][j] + IMG[i][j]     // row-wise IIR filter
//	    s(i,j) = s(i-1,j) + u(i,j)                // column accumulation
//	    if i == last: OUT[j] = s(i,j)
//
// Three compute ops per iteration, dependencies along both dimensions —
// exactly the class of multi-dimensional kernels HiMap targets. The same
// pattern covers the library's built-in CONV2D extension kernel, which is
// also compiled below.
package main

import (
	"context"
	"fmt"
	"log"

	"himap"
)

func smooth() *himap.Kernel {
	ij := himap.AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	k := &himap.Kernel{
		Name:     "SMOOTH",
		Desc:     "row IIR filter with column reduction",
		Suite:    "custom",
		Dim:      2,
		MinBlock: 2,
		Tensors: []himap.TensorSpec{
			{Name: "IMG", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
			{Name: "W", Dims: func(b []int) []int { return []int{b[0], b[1]} }},
			{Name: "OUT", Out: true, Dims: func(b []int) []int { return []int{b[1]} }},
		},
		Body: []himap.BodyOp{
			{Name: "m", Kind: himap.OpMul,
				A: himap.Fixed(himap.Mem("W", ij)),
				B: himap.In(
					himap.Case{When: himap.First(1), Src: himap.ConstSrc(0)},
					himap.Case{When: himap.Always(), Src: himap.Dep(1, 0, 1)})},
			{Name: "u", Kind: himap.OpAdd,
				A: himap.Fixed(himap.Same(0)),
				B: himap.Fixed(himap.Mem("IMG", ij))},
			{Name: "s", Kind: himap.OpAdd,
				A: himap.Fixed(himap.Same(1)),
				B: himap.In(
					himap.Case{When: himap.First(0), Src: himap.ConstSrc(0)},
					himap.Case{When: himap.Always(), Src: himap.Dep(2, 1, 0)}),
				Stores: []himap.StoreRule{{When: himap.Last(0), Tensor: "OUT", Map: himap.AM(2, []int{0, 1, 0})}}},
		},
	}
	return k
}

func main() {
	fmt.Println("== custom kernel through the public DSL ==")
	k := smooth()
	if err := k.Validate(); err != nil {
		log.Fatalf("spec: %v", err)
	}
	// CompileAuto applies Table I's triage: a multi-dimensional kernel
	// with inter-iteration dependences takes the HiMap flow.
	res, err := himap.CompileAuto(k, himap.DefaultCGRA(4, 4), himap.Options{})
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	fmt.Printf("%s (backend %s)\n", res.Summary(), res.Backend)
	if err := himap.Validate(res, 3, 99); err != nil {
		log.Fatalf("validate: %v", err)
	}
	fmt.Println("cycle-accurate validation: PASS")

	fmt.Println("\n== built-in CONV2D extension kernel ==")
	conv := himap.KernelConv2D()
	cres, err := himap.CompileRequest(context.Background(),
		himap.Request{Kernel: conv, Fabric: himap.Fabric{CGRA: himap.DefaultCGRA(4, 4)}})
	if err != nil {
		log.Fatalf("conv2d compile: %v", err)
	}
	fmt.Println(cres.Summary())
	if err := himap.Validate(cres, 2, 5); err != nil {
		log.Fatalf("conv2d validate: %v", err)
	}
	fmt.Println("cycle-accurate validation: PASS")

	fmt.Println("\n== Table I triage: a 1-D kernel ==")
	dot := himap.KernelDOTPROD()
	dres, err := himap.CompileAuto(dot, himap.DefaultCGRA(4, 4), himap.Options{})
	if err != nil {
		log.Fatalf("dotprod compile: %v", err)
	}
	fmt.Printf("%s: backend %s, block %v, II %d\n", dot.Name, dres.Backend, dres.Block, dres.Config.II)
	if err := himap.Validate(dres, 2, 5); err != nil {
		log.Fatalf("dotprod validate: %v", err)
	}
	fmt.Println("cycle-accurate validation: PASS")
}
