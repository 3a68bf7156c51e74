package sim

import (
	"errors"
	"strings"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
)

// TestStepRejectsUnexecutableWords: the machine executes any
// configuration it is handed and refuses, naming the PE and slot, a word
// the hardware could not execute; Run stops at the first such cycle.
func TestStepRejectsUnexecutableWords(t *testing.T) {
	boundary := arch.DefaultFabric(3, 3)
	boundary.Mem = arch.MemBoundary
	rows := []struct {
		name, want string
		fab        arch.Fabric
		in         arch.Instr
	}{
		{"memory read on a compute-only PE", "PE(1,1) slot 0: memory access on compute-only PE", boundary,
			arch.Instr{MemRead: arch.MemOp{Active: true}}},
		{"unknown operand kind", "PE(1,1) slot 0: unresolvable operand", arch.DefaultFabric(3, 3),
			arch.Instr{OutSel: [arch.MaxDirs]arch.Operand{{Kind: 99}}}},
		{"memory operand without a read", "PE(1,1) slot 0: mem operand without read", arch.DefaultFabric(3, 3),
			arch.Instr{Op: ir.OpAdd, SrcA: arch.FromConst(1), SrcB: arch.FromMem()}},
		{"memory op in the ALU", "PE(1,1) slot 0: unexpected op load", arch.DefaultFabric(3, 3),
			arch.Instr{Op: ir.OpLoad}},
		{"register write of an idle ALU", "PE(1,1) slot 0: ALU operand before compute", arch.DefaultFabric(3, 3),
			arch.Instr{RegWr: []arch.RegWrite{{Reg: 0, Src: arch.FromALU()}}}},
		{"memory write of an idle ALU", "PE(1,1) slot 0: ALU operand before compute", arch.DefaultFabric(3, 3),
			arch.Instr{MemWrite: arch.MemOp{Active: true, Src: arch.FromALU()}}},
	}
	for _, r := range rows {
		cfg := arch.NewConfig(r.fab, 1)
		*cfg.At(1, 1, 0) = r.in
		err := New(cfg).Run(3)
		if !errors.Is(err, diag.ErrConfigInvalid) || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: Run = %v, want ErrConfigInvalid containing %q", r.name, err, r.want)
		}
	}
}

// TestValidateRejects: Validate refuses a kernel its golden executor
// cannot run, a configuration the machine cannot execute, and memory specs that name a
// tensor the kernel does not have.
func TestValidateRejects(t *testing.T) {
	k, block := kernel.MVT(), []int{2, 2}
	good := func() *arch.Config { return arch.NewConfig(arch.DefaultFabric(1, 1), 1) }
	unknownLoad := good()
	unknownLoad.Loads = []arch.IOSpec{{Tensor: "Z", Index: []int{0}}}
	bad := good()
	bad.At(0, 0, 0).Op = ir.OpLoad
	unknownStore := good()
	unknownStore.At(0, 0, 0).MemWrite = arch.MemOp{Active: true, Src: arch.FromConst(5)}
	unknownStore.Stores = []arch.IOSpec{{Tensor: "Z", Index: []int{0}}}
	broken := kernel.MVT()
	broken.Body[0].Kind = ir.OpLoad
	rows := []struct {
		name, want string
		cfg        *arch.Config
		k          *kernel.Kernel
	}{
		{"kernel the golden executor refuses", "has non-body kind load", good(), broken},
		{"load of an unknown tensor", `load references unknown tensor "Z"`, unknownLoad, k},
		{"unexecutable word", "unexpected op load", bad, k},
		{"store to an unknown tensor", `store references unknown tensor "Z"`, unknownStore, k},
	}
	for _, r := range rows {
		if err := Validate(r.cfg, r.k, block, 1, 1); err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", r.name, err, r.want)
		}
	}
}
