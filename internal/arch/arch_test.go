package arch

import (
	"strings"
	"testing"

	"himap/internal/ir"
)

func TestDirDeltaOpposite(t *testing.T) {
	for d := Dir(0); d < NumDirs; d++ {
		dr, dc := d.Delta()
		or, oc := d.Opposite().Delta()
		if dr+or != 0 || dc+oc != 0 {
			t.Errorf("%v: delta (%d,%d) opposite (%d,%d)", d, dr, dc, or, oc)
		}
		if d.Opposite().Opposite() != d {
			t.Errorf("%v: double opposite", d)
		}
	}
}

// TestCGRANeighbor: on the default 4x4 mesh a link leaves the array
// nowhere and reaches the adjacent PE in the link's direction.
func TestCGRANeighbor(t *testing.T) {
	f := DefaultFabric(4, 4)
	if _, _, ok := f.LinkNeighbor(0, 0, North); ok {
		t.Error("north of (0,0) should not exist")
	}
	if r, cc, ok := f.LinkNeighbor(0, 0, South); !ok || r != 1 || cc != 0 {
		t.Errorf("south of (0,0) = (%d,%d,%v)", r, cc, ok)
	}
	if r, cc, ok := f.LinkNeighbor(2, 2, East); !ok || r != 2 || cc != 3 {
		t.Errorf("east of (2,2) = (%d,%d,%v)", r, cc, ok)
	}
}

func TestDefaultParametersMatchPaper(t *testing.T) {
	c := Default(8, 8)
	if c.NumRegs != 4 || c.RFReadPorts != 2 || c.RFWritePorts != 2 {
		t.Errorf("RF config %d regs %dr/%dw", c.NumRegs, c.RFReadPorts, c.RFWritePorts)
	}
	if c.ConfigDepth != 32 || c.DataMemWords != 64 {
		t.Errorf("memories %d cfg %d data", c.ConfigDepth, c.DataMemWords)
	}
	if c.ClockMHz != 510 {
		t.Errorf("clock %v", c.ClockMHz)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
	if c.NumPEs() != 64 {
		t.Errorf("NumPEs = %d", c.NumPEs())
	}
}

func TestCGRAValidateRejectsBad(t *testing.T) {
	bad := Default(0, 4)
	if err := bad.Validate(); err == nil {
		t.Error("0-row array should fail")
	}
	bad = Default(4, 4)
	bad.ClockMHz = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 MHz should fail")
	}
}

func TestInstrValidatePortLimits(t *testing.T) {
	c := Default(2, 2)
	in := Instr{Op: ir.OpAdd, SrcA: FromReg(0), SrcB: FromReg(1)}
	in.OutSel[East] = FromReg(2) // third distinct register read
	if err := in.Validate(c); err == nil {
		t.Error("3 register reads must exceed 2 read ports")
	}
	in.OutSel[East] = FromReg(0) // re-reading r0 is one port
	if err := in.Validate(c); err != nil {
		t.Errorf("2 distinct reads should pass: %v", err)
	}
	in.RegWr = []RegWrite{{0, FromALU()}, {1, FromALU()}, {2, FromALU()}}
	if err := in.Validate(c); err == nil {
		t.Error("3 register writes must exceed 2 write ports")
	}
	in.RegWr = []RegWrite{{0, FromALU()}, {0, FromALU()}}
	if err := in.Validate(c); err == nil {
		t.Error("double write to one register must fail")
	}
}

func TestInstrValidateALUAndMemCoupling(t *testing.T) {
	c := Default(2, 2)
	in := Instr{}
	in.OutSel[North] = FromALU()
	if err := in.Validate(c); err == nil {
		t.Error("ALU tap without compute op must fail")
	}
	in = Instr{}
	in.OutSel[North] = FromMem()
	if err := in.Validate(c); err == nil {
		t.Error("mem tap without memory read must fail")
	}
	in.MemRead = MemOp{Active: true, Tag: "A@0"}
	if err := in.Validate(c); err != nil {
		t.Errorf("mem tap with read should pass: %v", err)
	}
	in = Instr{Op: ir.OpAdd, SrcA: FromIn(North)}
	if err := in.Validate(c); err == nil {
		t.Error("compute with missing B operand must fail")
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{Op: ir.OpMul, SrcA: FromIn(West), SrcB: FromConst(3)}
	in.OutSel[East] = FromALU()
	in.RegWr = []RegWrite{{2, FromIn(North)}}
	s := in.String()
	for _, want := range []string{"mul", "inW", "#3", "outE=alu", "r2=inN"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestConfigSlotWrap(t *testing.T) {
	cfg := NewConfig(DefaultFabric(2, 2), 3)
	cfg.At(1, 1, 4).Op = ir.OpAdd
	if cfg.Slots[1][1][1].Op != ir.OpAdd {
		t.Error("At must wrap time modulo II")
	}
	if cfg.At(1, 1, -2).Op != ir.OpAdd {
		t.Error("At must wrap negative time")
	}
}

func TestConfigUtilizationAndUnique(t *testing.T) {
	cfg := NewConfig(DefaultFabric(2, 2), 2)
	*cfg.At(0, 0, 0) = Instr{Op: ir.OpAdd, SrcA: FromReg(0), SrcB: FromReg(1)}
	*cfg.At(0, 0, 1) = Instr{Op: ir.OpAdd, SrcA: FromReg(0), SrcB: FromReg(1)}
	if got := cfg.BusyFUs(); got != 2 {
		t.Errorf("BusyFUs = %d", got)
	}
	if got := cfg.Utilization(); got != 0.25 {
		t.Errorf("Utilization = %v, want 0.25", got)
	}
	// Identical instructions compress to one configuration entry.
	if got := cfg.UniqueInstrs(0, 0); got != 1 {
		t.Errorf("UniqueInstrs = %d, want 1 (dedup)", got)
	}
	if got := cfg.UniqueInstrs(1, 1); got != 1 {
		t.Errorf("UniqueInstrs of all-nop = %d, want 1", got)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestConfigValidateConfigDepth(t *testing.T) {
	a := DefaultFabric(1, 1)
	a.ConfigDepth = 2
	cfg := NewConfig(a, 4)
	for tt := 0; tt < 4; tt++ {
		*cfg.At(0, 0, tt) = Instr{Op: ir.OpAdd, SrcA: FromReg(0), SrcB: FromConst(int64(tt))}
	}
	if err := cfg.Validate(); err == nil {
		t.Error("4 unique instructions must exceed depth 2")
	}
}

func TestIsNop(t *testing.T) {
	var in Instr
	if !in.IsNop() {
		t.Error("zero instruction should be a nop")
	}
	in.OutSel[West] = FromIn(East)
	if in.IsNop() {
		t.Error("routing instruction is not a nop")
	}
}
