package arch

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"himap/internal/diag"
	"himap/internal/ir"
)

// TestInstrValidateRejects: one row per rejection of Instr.Validate
// that the port-limit and coupling tests leave out, and the accepted
// memory write of the value just read.
func TestInstrValidateRejects(t *testing.T) {
	c := Default(2, 2)
	rows := []struct {
		name, want string
		in         Instr
	}{
		{"read past the register file", "register read index 99 out of 4", Instr{Op: ir.OpAdd, SrcA: FromReg(99), SrcB: FromReg(0)}},
		{"first bad read is reported", "register read index -1 out of 4", Instr{Op: ir.OpAdd, SrcA: FromReg(-1), SrcB: FromReg(99)}},
		{"write past the register file", "register write index 4 out of 4", Instr{RegWr: []RegWrite{{4, FromIn(North)}}}},
		{"write of nothing", "register write from", Instr{RegWr: []RegWrite{{0, Operand{}}}}},
		{"write of a hold", "register write from", Instr{RegWr: []RegWrite{{0, Hold()}}}},
		{"compute without A", "compute add with source A", Instr{Op: ir.OpAdd, SrcB: FromReg(0)}},
		{"ALU operand without compute", "non-compute instruction with ALU source operand", Instr{SrcA: FromALU()}},
		{"register write of the ALU without compute", "RegWr taps ALU", Instr{RegWr: []RegWrite{{0, FromALU()}}}},
		{"memory write of the ALU without compute", "MemWrite taps ALU", Instr{MemWrite: MemOp{Active: true, Src: FromALU()}}},
		{"memory write of an unread value", "mem operand used but no memory read", Instr{MemWrite: MemOp{Active: true, Src: FromMem()}}},
		{"memory write of the value read", "", Instr{MemRead: MemOp{Active: true}, MemWrite: MemOp{Active: true, Src: FromMem()}}},
	}
	for _, r := range rows {
		err := r.in.Validate(&c)
		if r.want == "" {
			if err != nil {
				t.Errorf("%s: %v, want accepted", r.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), r.want) || !errors.Is(err, diag.ErrConfigInvalid) {
			t.Errorf("%s: %v, want ErrConfigInvalid containing %q", r.name, err, r.want)
		}
	}
}

// TestEncodingRejects: what the configuration word cannot hold, and
// words or images that are not a word of the fabric, fail typed.
func TestEncodingRejects(t *testing.T) {
	bad := Operand{Kind: 99}
	out4, outBad := &Instr{}, &Instr{}
	out4.OutSel[NorthEast] = FromIn(North)
	outBad.OutSel[East] = bad
	rows := []struct {
		name, want string
		in         *Instr
		ndirs      int
	}{
		{"three directions", "3 link directions not encodable", &Instr{}, 3},
		{"nine directions", "9 link directions not encodable", &Instr{}, 9},
		{"output past the word's directions", "OutSel NE set but word has 4 direction slots", out4, 4},
		{"unencodable source A", "unencodable operand", &Instr{Op: ir.OpAdd, SrcA: bad}, 4},
		{"unencodable source B", "unencodable operand", &Instr{Op: ir.OpAdd, SrcA: FromReg(0), SrcB: bad}, 4},
		{"unencodable output", "unencodable operand", outBad, 4},
		{"three register writes", "3 register writes exceed the 2 encodable ports", &Instr{RegWr: []RegWrite{{0, FromReg(1)}, {1, FromReg(1)}, {2, FromReg(1)}}}, 4},
		{"unencodable register write", "unencodable operand", &Instr{RegWr: []RegWrite{{0, bad}}}, 4},
		{"unencodable memory write", "unencodable operand", &Instr{MemWrite: MemOp{Active: true, Src: bad}}, 4},
		{"wide immediate", "immediate 70000 exceeds the 16-bit configuration field", &Instr{Op: ir.OpAdd, SrcA: FromConst(70000), SrcB: FromReg(0)}, 4},
	}
	for _, r := range rows {
		if w, err := EncodeInstr(r.in, r.ndirs); err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: EncodeInstr = %v, %v, want an error containing %q", r.name, w, err, r.want)
		}
	}
	for _, r := range []struct {
		name, want string
		w          []byte
		ndirs      int
	}{
		{"three directions", "3 link directions not decodable", make([]byte, WordSize(4)), 3},
		{"short word", "word length 11, want 12", make([]byte, 11), 4},
	} {
		if in, err := DecodeInstr(r.w, r.ndirs); err == nil || !strings.Contains(err.Error(), r.want) || !errors.Is(err, diag.ErrConfigInvalid) {
			t.Errorf("%s: DecodeInstr = %v, %v, want ErrConfigInvalid containing %q", r.name, in, err, r.want)
		}
	}

	cfg := NewConfig(DefaultFabric(1, 2), 2)
	cfg.At(0, 1, 1).SrcA = bad
	if _, err := Encode(cfg); err == nil || !strings.Contains(err.Error(), "PE(0,1) slot 1: arch: unencodable operand") {
		t.Errorf("Encode of an unencodable slot: %v, want the slot named", err)
	}
	// Encode names the slot and keeps the word's typed cause, once.
	cfg = NewConfig(DefaultFabric(1, 1), 1)
	cfg.At(0, 0, 0).SrcA = FromConst(70000)
	if _, err := Encode(cfg); err == nil || !errors.Is(err, diag.ErrConfigInvalid) || strings.Count(err.Error(), diag.ErrConfigInvalid.Error()) != 1 {
		t.Errorf("Encode of a wide immediate: %v, want ErrConfigInvalid named once", err)
	}
	// An image whose direction count is not the fabric's (a Bitstream
	// not made by Encode) is refused, not misread.
	bs, err := Encode(NewConfig(DefaultFabric(1, 1), 1))
	if err != nil {
		t.Fatal(err)
	}
	bs.NDirs = 0
	if _, err := bs.Decode(DefaultFabric(1, 1)); err == nil || !strings.Contains(err.Error(), "0 link directions not decodable") {
		t.Errorf("Decode of a zero-direction image: %v, want refused", err)
	}
}

// TestReadJSONRejectsMalformed: a configuration file is outside input;
// each structural defect is a typed rejection that names it.
func TestReadJSONRejectsMalformed(t *testing.T) {
	base := minimalJSON(`3`)
	rows := []struct {
		name, old, new, want string
	}{
		{"register file past the decode bound", `"NumRegs":4`, `"NumRegs":5000`, "5000 registers / depth 32 exceed the 4096 decode bound"},
		{"II past the decode bound", `"ii":1`, `"ii":5000`, "II = 5000 exceeds the 4096 decode bound"},
		{"no registers", `"NumRegs":4`, `"NumRegs":0`, "0 registers"},
		{"no RF read port", `"RFReadPorts":2`, `"RFReadPorts":0`, "RF ports 0r/2w"},
		{"no configuration memory", `"ConfigDepth":32`, `"ConfigDepth":0`, "config depth 0"},
		{"caps grid of the wrong height", `"ii":1`, `"caps":["M","M"],"ii":1`, "caps grid has 2 rows for a 1-row array"},
		{"zero II", `"ii":1`, `"ii":0`, "II = 0"},
		{"row of the wrong width", `"slots":[[[{"Op":0}]]]`, `"slots":[[]]`, "row 0 has 0 columns, want 1"},
		{"stream of the wrong length", `"slots":[[[{"Op":0}]]]`, `"slots":[[[]]]`, "PE(0,0) stream length 0, want II 1"},
		{"invalid instruction", `{"Op":0}`, `{"Op":1}`, "PE(0,0) slot 0: arch: compute add with source A"},
	}
	for _, r := range rows {
		doc := strings.Replace(base, r.old, r.new, 1)
		if doc == base {
			t.Fatalf("%s: %q is not in the base document", r.name, r.old)
		}
		cfg, err := ReadJSON(strings.NewReader(doc))
		if err == nil || !strings.Contains(err.Error(), r.want) || !errors.Is(err, diag.ErrConfigInvalid) {
			t.Errorf("%s: ReadJSON = %v, %v, want ErrConfigInvalid containing %q", r.name, cfg, err, r.want)
		}
	}
}

// TestConfigValidateRejects: the whole-config checks beyond each
// instruction's own, and the encoder's refusal of an unencodable clock.
func TestConfigValidateRejects(t *testing.T) {
	cfg := NewConfig(DefaultFabric(2, 2), 1)
	cfg.At(1, 0, 0).OutSel[SouthEast] = FromIn(North)
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "PE(1,0) slot 0: OutSel SE but fabric has 4 link directions") {
		t.Errorf("diagonal output on a mesh: %v", err)
	}
	f := DefaultFabric(3, 3)
	f.Mem = MemBoundary
	cfg = NewConfig(f, 1)
	cfg.At(1, 1, 0).MemRead = MemOp{Active: true}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "PE(1,1) slot 0: memory access on compute-only PE") {
		t.Errorf("memory read in the interior of a boundary-memory fabric: %v", err)
	}
	cfg = NewConfig(DefaultFabric(1, 1), 1)
	cfg.Fabric.ClockMHz = math.NaN()
	if err := cfg.WriteJSON(new(bytes.Buffer)); err == nil {
		t.Error("WriteJSON encoded a NaN clock")
	}
}

// TestFabricValidateRejectsBadCGRA: a fabric is invalid when its array
// is, field by field.
func TestFabricValidateRejectsBadCGRA(t *testing.T) {
	rows := []struct {
		want string
		mut  func(c *CGRA)
	}{
		{"0 registers", func(c *CGRA) { c.NumRegs = 0 }},
		{"RF ports 2r/0w", func(c *CGRA) { c.RFWritePorts = 0 }},
		{"config depth 0", func(c *CGRA) { c.ConfigDepth = 0 }},
	}
	for _, r := range rows {
		f := DefaultFabric(2, 2)
		r.mut(&f.CGRA)
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), r.want) || !errors.Is(err, diag.ErrConfigInvalid) {
			t.Errorf("Fabric.Validate = %v, want ErrConfigInvalid containing %q", err, r.want)
		}
	}
}

// TestSmallArchContracts: the names, panics and edge values of the
// small helpers.
func TestSmallArchContracts(t *testing.T) {
	if got := Dir(9).String(); got != "Dir(9)" {
		t.Errorf("Dir(9).String() = %q", got)
	}
	topo, mem, bw, cost := FabricNames()
	for _, c := range []struct{ list, name string }{{topo, "torus"}, {mem, "boundary"}, {bw, "narrow-rf"}, {cost, "low-power"}} {
		if !strings.Contains("|"+c.list+"|", "|"+c.name+"|") {
			t.Errorf("FabricNames list %q lacks %q", c.list, c.name)
		}
	}
	if (&Instr{Op: ir.OpAdd}).IsNop() {
		t.Error("an add is a nop")
	}
	for name, f := range map[string]func(){
		"Delta of a bad direction":    func() { Dir(9).Delta() },
		"Opposite of a bad direction": func() { Dir(9).Opposite() },
		"zero II":                     func() { NewConfig(DefaultFabric(1, 1), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
