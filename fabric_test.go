package himap_test

import (
	"errors"
	"fmt"
	"testing"

	"himap"
)

// TestCompileFabricTorus pins the torus link provider end to end: every
// paper kernel must compile on the wrap-around fabric and pass
// cycle-accurate validation (the wrap links make every translation a
// graph automorphism, so replication works from any cluster position).
func TestCompileFabricTorus(t *testing.T) {
	fab := himap.Fabric{CGRA: himap.DefaultCGRA(8, 8), Topology: himap.TopoTorus}
	for _, name := range []string{"GEMM", "ATAX", "BICG"} {
		name := name
		t.Run(name, func(t *testing.T) {
			k, err := himap.KernelByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := compileFabric(k, fab, himap.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := himap.Validate(res, 3, 42); err != nil {
				t.Fatalf("torus mapping failed cycle-accurate validation: %v", err)
			}
		})
	}
}

// TestCompileFabricBoundaryMemTorus pins the heterogeneous-capability
// path: a memory kernel compiled onto a torus whose memory ports exist
// only on the boundary columns must place every load and store on a
// memory-capable PE and still pass cycle-accurate validation.
func TestCompileFabricBoundaryMemTorus(t *testing.T) {
	fab := himap.Fabric{CGRA: himap.DefaultCGRA(8, 8), Topology: himap.TopoTorus, Mem: himap.MemBoundary}
	k, err := himap.KernelByName("FW")
	if err != nil {
		t.Fatal(err)
	}
	res, err := compileFabric(k, fab, himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Config
	for r := 0; r < cfg.Fabric.Rows; r++ {
		for c := 0; c < cfg.Fabric.Cols; c++ {
			for tt := 0; tt < cfg.II; tt++ {
				in := cfg.Slots[r][c][tt]
				if (in.MemRead.Active || in.MemWrite.Active) && !cfg.Fabric.MemCapable(r, c) {
					t.Fatalf("memory access on compute-only PE(%d,%d)", r, c)
				}
			}
		}
	}
	if err := himap.Validate(res, 3, 42); err != nil {
		t.Fatalf("boundary-mem torus mapping failed validation: %v", err)
	}
}

// TestMemPortInfeasibleTyped pins the failure mode: a kernel whose memory
// demand no capability-uniform sub-CGRA of the fabric can satisfy must
// fail with the typed ErrMemPortInfeasible class — a diagnosable error,
// never a panic or an untyped string.
func TestMemPortInfeasibleTyped(t *testing.T) {
	fab := himap.Fabric{CGRA: himap.DefaultCGRA(8, 8), Mem: himap.MemBoundary}
	k, err := himap.KernelByName("ATAX")
	if err != nil {
		t.Fatal(err)
	}
	_, err = compileFabric(k, fab, himap.Options{})
	if err == nil {
		t.Skip("ATAX unexpectedly mapped on mesh/boundary; no infeasible case to check")
	}
	if !errors.Is(err, himap.ErrMemPortInfeasible) {
		t.Fatalf("error does not wrap ErrMemPortInfeasible: %v", err)
	}
	var se *himap.StageError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a StageError: %v", err)
	}
}

// TestCompileFabricWideRegisterFile: register files wider than the eight
// indices the router's node keys used to hold (and the sixteen the
// emitter's claim lanes reserved) must compile and compute the kernel.
func TestCompileFabricWideRegisterFile(t *testing.T) {
	for _, k := range []*himap.Kernel{himap.KernelGEMM(), himap.KernelFW()} {
		for _, regs := range []int{9, 20} {
			k, regs := k, regs
			t.Run(fmt.Sprintf("%s/regs%d", k.Name, regs), func(t *testing.T) {
				fab := himap.DefaultFabric(8, 8)
				fab.NumRegs = regs
				res, err := compileFabric(k, fab, himap.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := himap.Validate(res, 3, 42); err != nil {
					t.Fatalf("%d-register mapping failed cycle-accurate validation: %v", regs, err)
				}
			})
		}
	}
}

// TestFabricValidateRejectsUnroutableSizes: what the routing graph's
// packed node keys cannot hold is a typed configuration error.
func TestFabricValidateRejectsUnroutableSizes(t *testing.T) {
	wide, deep := himap.DefaultFabric(8, 257), himap.DefaultFabric(8, 8)
	deep.NumRegs = 257
	for _, fab := range []himap.Fabric{wide, deep} {
		if err := fab.Validate(); !errors.Is(err, himap.ErrConfigInvalid) {
			t.Errorf("%v regs %d: err = %v, want ErrConfigInvalid", fab, fab.NumRegs, err)
		}
	}
	if err := himap.DefaultFabric(256, 256).Validate(); err != nil {
		t.Errorf("256x256 must stay valid: %v", err)
	}
}
