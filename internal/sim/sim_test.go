package sim

import (
	"testing"

	"himap/internal/arch"
	"himap/internal/ir"
)

// TestMachineNeighborLatency: a value sent through an output register at
// cycle t is visible on the neighbor's input latch at t+1.
func TestMachineNeighborLatency(t *testing.T) {
	cfg := arch.NewConfig(arch.DefaultFabric(1, 2), 2)
	// PE(0,0) slot 0: load a value from memory, send east.
	in := cfg.At(0, 0, 0)
	in.MemRead = arch.MemOp{Active: true, Tag: "A@0"}
	in.OutSel[arch.East] = arch.FromMem()
	// PE(0,1) slot 1: add the arriving value to a constant, store it.
	in = cfg.At(0, 1, 1)
	in.Op = ir.OpAdd
	in.SrcA = arch.FromIn(arch.West)
	in.SrcB = arch.FromConst(100)
	in.MemWrite = arch.MemOp{Active: true, Src: arch.FromALU(), Tag: "O@0"}

	m := New(cfg)
	m.SetFeed(0, 0, 0, []int64{7, 9})
	if err := m.Run(4); err != nil {
		t.Fatal(err)
	}
	log := m.StoreLog(0, 1, 1)
	if len(log) != 2 || log[0] != 107 || log[1] != 109 {
		t.Fatalf("store log = %v, want [107 109]", log)
	}
}

// TestMachineRegisterFile: a value written to a register at cycle t is
// readable from t+1 and holds until overwritten.
func TestMachineRegisterFile(t *testing.T) {
	cfg := arch.NewConfig(arch.DefaultFabric(1, 1), 4)
	in := cfg.At(0, 0, 0)
	in.MemRead = arch.MemOp{Active: true, Tag: "A@0"}
	in.RegWr = []arch.RegWrite{{Reg: 2, Src: arch.FromMem()}}
	// Read it two cycles later.
	in = cfg.At(0, 0, 2)
	in.Op = ir.OpMul
	in.SrcA = arch.FromReg(2)
	in.SrcB = arch.FromConst(3)
	in.MemWrite = arch.MemOp{Active: true, Src: arch.FromALU(), Tag: "O@0"}

	m := New(cfg)
	m.SetFeed(0, 0, 0, []int64{5})
	if err := m.Run(4); err != nil {
		t.Fatal(err)
	}
	if log := m.StoreLog(0, 0, 2); len(log) != 1 || log[0] != 15 {
		t.Fatalf("store log = %v, want [15]", log)
	}
}

// TestMachineSameCycleRegReadGetsOldValue: a register read in the same
// cycle as a write observes the pre-write value (write commits at end of
// cycle).
func TestMachineSameCycleRegReadGetsOldValue(t *testing.T) {
	cfg := arch.NewConfig(arch.DefaultFabric(1, 1), 2)
	in := cfg.At(0, 0, 0)
	in.MemRead = arch.MemOp{Active: true, Tag: "A@0"}
	in.Op = ir.OpAdd
	in.SrcA = arch.FromReg(0) // old r0
	in.SrcB = arch.FromMem()
	in.RegWr = []arch.RegWrite{{Reg: 0, Src: arch.FromALU()}} // r0 = old r0 + mem
	in.MemWrite = arch.MemOp{Active: true, Src: arch.FromALU(), Tag: "O@0"}

	m := New(cfg)
	m.SetFeed(0, 0, 0, []int64{1, 10, 100})
	if err := m.Run(6); err != nil {
		t.Fatal(err)
	}
	// Accumulates across periods: 1, 11, 111.
	if log := m.StoreLog(0, 0, 0); len(log) != 3 || log[0] != 1 || log[1] != 11 || log[2] != 111 {
		t.Fatalf("store log = %v, want [1 11 111]", log)
	}
}

// TestMachineOutputRegisterHold: an undriven output register keeps its
// value; Hold() is explicit retention.
func TestMachineOutputRegisterHold(t *testing.T) {
	cfg := arch.NewConfig(arch.DefaultFabric(1, 2), 3)
	in := cfg.At(0, 0, 0)
	in.MemRead = arch.MemOp{Active: true, Tag: "A@0"}
	in.OutSel[arch.East] = arch.FromMem()
	cfg.At(0, 0, 1).OutSel[arch.East] = arch.Hold()
	// Consumer reads the held value one cycle later than the send.
	in = cfg.At(0, 1, 2)
	in.Op = ir.OpAdd
	in.SrcA = arch.FromIn(arch.West)
	in.SrcB = arch.FromConst(0)
	in.MemWrite = arch.MemOp{Active: true, Src: arch.FromALU(), Tag: "O@0"}

	m := New(cfg)
	m.SetFeed(0, 0, 0, []int64{42})
	if err := m.Run(3); err != nil {
		t.Fatal(err)
	}
	if log := m.StoreLog(0, 1, 2); len(log) != 1 || log[0] != 42 {
		t.Fatalf("store log = %v, want [42]", log)
	}
}

// TestMachineALUOperandErrors: tapping the ALU without a compute op is a
// simulation error (and is also rejected by config validation).
func TestMachineALUOperandErrors(t *testing.T) {
	cfg := arch.NewConfig(arch.DefaultFabric(1, 1), 1)
	in := cfg.At(0, 0, 0)
	in.MemWrite = arch.MemOp{Active: true, Src: arch.FromALU(), Tag: "O@0"}
	m := New(cfg)
	if err := m.Step(); err == nil {
		t.Error("expected error for ALU tap without compute")
	}
}

// TestMachineMemOperandWithoutRead errors.
func TestMachineMemOperandWithoutRead(t *testing.T) {
	cfg := arch.NewConfig(arch.DefaultFabric(1, 1), 1)
	in := cfg.At(0, 0, 0)
	in.Op = ir.OpAdd
	in.SrcA = arch.FromMem()
	in.SrcB = arch.FromConst(0)
	m := New(cfg)
	if err := m.Step(); err == nil {
		t.Error("expected error for mem operand without configured read")
	}
}

// TestMachineExhaustedFeedReadsZero: pops beyond the stream read zero.
func TestMachineExhaustedFeedReadsZero(t *testing.T) {
	cfg := arch.NewConfig(arch.DefaultFabric(1, 1), 1)
	in := cfg.At(0, 0, 0)
	in.MemRead = arch.MemOp{Active: true, Tag: "A@0"}
	in.MemWrite = arch.MemOp{Active: true, Src: arch.FromMem(), Tag: "O@0"}
	m := New(cfg)
	m.SetFeed(0, 0, 0, []int64{4})
	if err := m.Run(3); err != nil {
		t.Fatal(err)
	}
	if log := m.StoreLog(0, 0, 0); len(log) != 3 || log[0] != 4 || log[1] != 0 || log[2] != 0 {
		t.Fatalf("store log = %v, want [4 0 0]", log)
	}
}

// TestMachineBorderInputsAreZero: input latches on the array border read
// zero rather than garbage.
func TestMachineBorderInputsAreZero(t *testing.T) {
	cfg := arch.NewConfig(arch.DefaultFabric(1, 1), 1)
	in := cfg.At(0, 0, 0)
	in.Op = ir.OpAdd
	in.SrcA = arch.FromIn(arch.North)
	in.SrcB = arch.FromConst(9)
	in.MemWrite = arch.MemOp{Active: true, Src: arch.FromALU(), Tag: "O@0"}
	m := New(cfg)
	if err := m.Run(2); err != nil {
		t.Fatal(err)
	}
	if log := m.StoreLog(0, 0, 0); len(log) != 2 || log[0] != 9 {
		t.Fatalf("store log = %v", log)
	}
}
