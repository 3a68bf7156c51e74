package arch

import (
	"testing"

	"himap/internal/ir"
)

func sampleInstr() *Instr {
	in := &Instr{Op: ir.OpMul, SrcA: FromIn(West), SrcB: FromConst(-7)}
	in.OutSel[East] = FromALU()
	in.OutSel[South] = FromIn(North)
	in.OutSel[West] = Hold()
	in.RegWr = []RegWrite{{Reg: 2, Src: FromALU()}, {Reg: 0, Src: FromIn(East)}}
	in.MemRead = MemOp{Active: true, Tag: "A@1,2"}
	in.MemWrite = MemOp{Active: true, Src: FromReg(3), Tag: "O@1,2"}
	return in
}

func instrEqualModuloTags(a, b *Instr) bool {
	ac, bc := *a, *b
	ac.Comment, bc.Comment = "", ""
	ac.MemRead.Tag, bc.MemRead.Tag = "", ""
	ac.MemWrite.Tag, bc.MemWrite.Tag = "", ""
	if len(ac.RegWr) != len(bc.RegWr) {
		return false
	}
	for i := range ac.RegWr {
		if ac.RegWr[i] != bc.RegWr[i] {
			return false
		}
	}
	ac.RegWr, bc.RegWr = nil, nil
	return ac.String() == bc.String()
}

func TestEncodeDecodeInstrRoundTrip(t *testing.T) {
	in := sampleInstr()
	w, err := EncodeInstr(in, int(NumDirs))
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 12 {
		t.Fatalf("word length %d", len(w))
	}
	out, err := DecodeInstr(w, int(NumDirs))
	if err != nil {
		t.Fatal(err)
	}
	if !instrEqualModuloTags(in, out) {
		t.Errorf("round trip mismatch:\n in: %v\nout: %v", in, out)
	}
}

func TestEncodeInstrNop(t *testing.T) {
	var in Instr
	w, err := EncodeInstr(&in, int(NumDirs))
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeInstr(w, int(NumDirs))
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsNop() {
		t.Errorf("decoded nop is %v", out)
	}
}

func TestEncodeInstrRejectsWideImmediate(t *testing.T) {
	in := &Instr{Op: ir.OpAdd, SrcA: FromReg(0), SrcB: FromConst(1 << 20)}
	if _, err := EncodeInstr(in, int(NumDirs)); err == nil {
		t.Error("expected immediate-width error")
	}
}

func TestEncodeInstrRejectsTwoImmediates(t *testing.T) {
	in := &Instr{Op: ir.OpAdd, SrcA: FromReg(0), SrcB: FromConst(1)}
	in.RegWr = []RegWrite{{Reg: 1, Src: FromConst(2)}}
	if _, err := EncodeInstr(in, int(NumDirs)); err == nil {
		t.Error("two distinct immediates cannot share the field")
	}
	// The same immediate value is fine.
	in.RegWr[0].Src = FromConst(1)
	if _, err := EncodeInstr(in, int(NumDirs)); err != nil {
		t.Errorf("shared immediate should encode: %v", err)
	}
}

func TestEncodeConfigDedupAndSize(t *testing.T) {
	cfg := NewConfig(DefaultFabric(2, 2), 4)
	// Two distinct instructions alternating: 2 unique words per PE.
	a := Instr{Op: ir.OpAdd, SrcA: FromReg(0), SrcB: FromConst(1)}
	m := Instr{Op: ir.OpMul, SrcA: FromReg(1), SrcB: FromConst(1)}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			for tt := 0; tt < 4; tt++ {
				if tt%2 == 0 {
					*cfg.At(r, c, tt) = a
				} else {
					*cfg.At(r, c, tt) = m
				}
			}
		}
	}
	bs, err := Encode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := bs.MaxWordsPerPE(); got != 2 {
		t.Errorf("unique words per PE = %d, want 2", got)
	}
	// 4 PEs × (2 words × 12 B + ceil(4 slots × 1 bit / 8) = 1 B).
	if got := bs.TotalBytes(); got != 4*(2*12+1) {
		t.Errorf("TotalBytes = %d", got)
	}
	dec, err := bs.Decode(cfg.Fabric)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			for tt := 0; tt < 4; tt++ {
				if !instrEqualModuloTags(cfg.At(r, c, tt), dec.At(r, c, tt)) {
					t.Fatalf("PE(%d,%d) slot %d mismatch", r, c, tt)
				}
			}
		}
	}
}

func TestEncodeEnforcesConfigDepth(t *testing.T) {
	a := DefaultFabric(1, 1)
	a.ConfigDepth = 2
	cfg := NewConfig(a, 4)
	for tt := 0; tt < 4; tt++ {
		*cfg.At(0, 0, tt) = Instr{Op: ir.OpAdd, SrcA: FromReg(0), SrcB: FromConst(int64(tt))}
	}
	if _, err := Encode(cfg); err == nil {
		t.Error("expected configuration-depth overflow")
	}
}
