package arch

import (
	"fmt"
	"himap/internal/diag"
	"math/bits"
	"strings"

	"himap/internal/ir"
)

// OperandKind identifies where a crossbar/ALU input value comes from
// within a cycle.
type OperandKind uint8

const (
	// OpdNone selects nothing (port unused).
	OpdNone OperandKind = iota
	// OpdIn selects the input latch from neighbor direction Dir (the value
	// the neighbor's output register held last cycle).
	OpdIn
	// OpdALU selects this cycle's ALU result (same-cycle crossbar tap).
	OpdALU
	// OpdReg selects register Reg through an RF read port.
	OpdReg
	// OpdConst selects the immediate Const.
	OpdConst
	// OpdMem selects the value produced by this cycle's data-memory read.
	OpdMem
	// OpdHold keeps an output register's previous value (valid in OutSel
	// only).
	OpdHold
)

// Operand is a configured input selection.
type Operand struct {
	Kind  OperandKind
	Dir   Dir
	Reg   int
	Const int64
}

// Operand constructors.
func FromIn(d Dir) Operand      { return Operand{Kind: OpdIn, Dir: d} }
func FromALU() Operand          { return Operand{Kind: OpdALU} }
func FromReg(r int) Operand     { return Operand{Kind: OpdReg, Reg: r} }
func FromConst(v int64) Operand { return Operand{Kind: OpdConst, Const: v} }
func FromMem() Operand          { return Operand{Kind: OpdMem} }
func Hold() Operand             { return Operand{Kind: OpdHold} }

// String renders the operand compactly.
func (o Operand) String() string {
	switch o.Kind {
	case OpdNone:
		return "-"
	case OpdIn:
		return "in" + o.Dir.String()
	case OpdALU:
		return "alu"
	case OpdReg:
		return fmt.Sprintf("r%d", o.Reg)
	case OpdConst:
		return fmt.Sprintf("#%d", o.Const)
	case OpdMem:
		return "mem"
	case OpdHold:
		return "hold"
	}
	return "?"
}

// RegWrite configures one RF write port for the cycle.
type RegWrite struct {
	Reg int
	Src Operand
}

// MemOp configures the PE data-memory port for the cycle. At most one
// read and one write per cycle. Tag correlates the access with a logical
// tensor element for the simulator's stream feeds (it plays the role of
// the address-generation the paper's PEs perform while iterating blocks).
type MemOp struct {
	Active bool
	Src    Operand // writes: value source; reads: unused
	Tag    string  // "tensor@i,j" element correlation tag
}

// Instr is one configuration-memory word: the PE's behaviour for one
// cycle of the II-cycle repeating schedule.
type Instr struct {
	Op       ir.OpKind // OpNop or a compute kind
	SrcA     Operand
	SrcB     Operand
	OutSel   [MaxDirs]Operand // crossbar drive of the directional output registers
	RegWr    []RegWrite
	MemRead  MemOp
	MemWrite MemOp
	Comment  string // mapping provenance (node names), for rendering
}

// IsNop reports whether the instruction does nothing at all.
func (in *Instr) IsNop() bool {
	if in.Op != ir.OpNop || len(in.RegWr) != 0 || in.MemRead.Active || in.MemWrite.Active {
		return false
	}
	for _, o := range in.OutSel[:] {
		if o.Kind != OpdNone {
			return false
		}
	}
	return true
}

// maxRegs bounds a register index: the routing graph packs it into a
// byte (mrrg.Node.Idx), and Fabric.Validate rejects wider register
// files, so a fixed bitmask holds any legal register set.
const maxRegs = 256

// regSet is a set of register indices in [0, maxRegs).
type regSet [maxRegs / 64]uint64

// add inserts r and reports whether it was already present.
func (s *regSet) add(r int) bool {
	w, b := r>>6, uint64(1)<<(r&63)
	dup := s[w]&b != 0
	s[w] |= b
	return dup
}

func (s *regSet) len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Validate checks the instruction against the architecture's port limits:
// RF read/write ports, register indices, and single mem read/write.
func (in *Instr) Validate(c *CGRA) error {
	nregs := min(c.NumRegs, maxRegs)
	var reads regSet
	badRead, hasBad := 0, false
	note := func(o Operand) {
		switch {
		case o.Kind != OpdReg:
		case o.Reg < 0 || o.Reg >= nregs:
			if !hasBad {
				badRead, hasBad = o.Reg, true
			}
		default:
			reads.add(o.Reg)
		}
	}
	note(in.SrcA)
	note(in.SrcB)
	for _, o := range in.OutSel[:] {
		note(o)
	}
	for _, w := range in.RegWr {
		note(w.Src)
	}
	if in.MemWrite.Active {
		note(in.MemWrite.Src)
	}
	if hasBad {
		return fmt.Errorf("arch: register read index %d out of %d: %w", badRead, nregs, diag.ErrConfigInvalid)
	}
	if n := reads.len(); n > c.RFReadPorts {
		return fmt.Errorf("arch: instruction reads %d registers, %d read ports: %w", n, c.RFReadPorts, diag.ErrConfigInvalid)
	}
	if len(in.RegWr) > c.RFWritePorts {
		return fmt.Errorf("arch: instruction writes %d registers, %d write ports: %w", len(in.RegWr), c.RFWritePorts, diag.ErrConfigInvalid)
	}
	var written regSet
	for _, w := range in.RegWr {
		if w.Reg < 0 || w.Reg >= nregs {
			return fmt.Errorf("arch: register write index %d out of %d: %w", w.Reg, nregs, diag.ErrConfigInvalid)
		}
		if written.add(w.Reg) {
			return fmt.Errorf("arch: register %d written twice in one cycle: %w", w.Reg, diag.ErrConfigInvalid)
		}
		if w.Src.Kind == OpdNone || w.Src.Kind == OpdHold {
			return fmt.Errorf("arch: register write from %v: %w", w.Src, diag.ErrConfigInvalid)
		}
	}
	if in.Op.IsCompute() {
		if in.SrcA.Kind == OpdNone || in.SrcA.Kind == OpdHold {
			return fmt.Errorf("arch: compute %v with source A %v: %w", in.Op, in.SrcA, diag.ErrConfigInvalid)
		}
		if in.Op.Arity() > 1 && (in.SrcB.Kind == OpdNone || in.SrcB.Kind == OpdHold) {
			return fmt.Errorf("arch: compute %v with source B %v: %w", in.Op, in.SrcB, diag.ErrConfigInvalid)
		}
	}
	usesALU := func(o Operand) bool { return o.Kind == OpdALU }
	if !in.Op.IsCompute() {
		if usesALU(in.SrcA) || usesALU(in.SrcB) {
			return fmt.Errorf("arch: non-compute instruction with ALU source operand: %w", diag.ErrConfigInvalid)
		}
		for _, o := range in.OutSel[:] {
			if usesALU(o) {
				return fmt.Errorf("arch: OutSel taps ALU but no compute op this cycle: %w", diag.ErrConfigInvalid)
			}
		}
		for _, w := range in.RegWr {
			if usesALU(w.Src) {
				return fmt.Errorf("arch: RegWr taps ALU but no compute op this cycle: %w", diag.ErrConfigInvalid)
			}
		}
		if in.MemWrite.Active && usesALU(in.MemWrite.Src) {
			return fmt.Errorf("arch: MemWrite taps ALU but no compute op this cycle: %w", diag.ErrConfigInvalid)
		}
	}
	usesMem := func(o Operand) bool { return o.Kind == OpdMem }
	memUsed := usesMem(in.SrcA) || usesMem(in.SrcB)
	for _, o := range in.OutSel[:] {
		memUsed = memUsed || usesMem(o)
	}
	for _, w := range in.RegWr {
		memUsed = memUsed || usesMem(w.Src)
	}
	if in.MemWrite.Active && usesMem(in.MemWrite.Src) {
		memUsed = true
	}
	if memUsed && !in.MemRead.Active {
		return fmt.Errorf("arch: mem operand used but no memory read configured: %w", diag.ErrConfigInvalid)
	}
	return nil
}

// String renders the instruction on one line.
func (in *Instr) String() string {
	var b strings.Builder
	if in.Op != ir.OpNop {
		fmt.Fprintf(&b, "%s %s,%s", in.Op, in.SrcA, in.SrcB)
	} else {
		b.WriteString("nop")
	}
	for d := Dir(0); d < MaxDirs; d++ {
		if in.OutSel[d].Kind != OpdNone {
			fmt.Fprintf(&b, " out%s=%s", d, in.OutSel[d])
		}
	}
	for _, w := range in.RegWr {
		fmt.Fprintf(&b, " r%d=%s", w.Reg, w.Src)
	}
	if in.MemRead.Active {
		fmt.Fprintf(&b, " ld[%s]", in.MemRead.Tag)
	}
	if in.MemWrite.Active {
		fmt.Fprintf(&b, " st[%s]=%s", in.MemWrite.Tag, in.MemWrite.Src)
	}
	return b.String()
}

// sameOperand reports whether two operands render identically (see
// Operand.String): only the field the kind selects distinguishes them.
func sameOperand(a, b Operand) bool {
	if a.Kind != b.Kind {
		return a.Kind > OpdHold && b.Kind > OpdHold // every unknown kind renders "?"
	}
	switch a.Kind {
	case OpdIn:
		return a.Dir == b.Dir
	case OpdReg:
		return a.Reg == b.Reg
	case OpdConst:
		return a.Const == b.Const
	}
	return true
}

// SameWord reports whether two instructions are the same configuration
// word: equal in everything String prints once the memory correlation
// tags are dropped. Like String it ignores the comment, the sources of a
// nop, and the source of an inactive memory write.
func (in *Instr) SameWord(o *Instr) bool {
	if in.Op != o.Op || len(in.RegWr) != len(o.RegWr) ||
		in.MemRead.Active != o.MemRead.Active || in.MemWrite.Active != o.MemWrite.Active {
		return false
	}
	if in.Op != ir.OpNop && !(sameOperand(in.SrcA, o.SrcA) && sameOperand(in.SrcB, o.SrcB)) {
		return false
	}
	for d := range in.OutSel {
		if !sameOperand(in.OutSel[d], o.OutSel[d]) {
			return false
		}
	}
	for i, w := range in.RegWr {
		if w.Reg != o.RegWr[i].Reg || !sameOperand(w.Src, o.RegWr[i].Src) {
			return false
		}
	}
	return !in.MemWrite.Active || sameOperand(in.MemWrite.Src, o.MemWrite.Src)
}
