package arch

import (
	"encoding/binary"
	"fmt"

	"himap/internal/diag"
	"himap/internal/ir"
)

// The bitstream decoder is the encoder's oracle: the hardware reads the
// words, the mapper only writes them, so decoding lives with the tests
// that hold Encode to it (here, and the round trip that executes a
// decoded image in decode_roundtrip_test.go).

// DecodeInstr unpacks a configuration word for a fabric with ndirs link
// directions. Memory tags are not part of the bitstream and come back
// empty.
func DecodeInstr(w []byte, ndirs int) (*Instr, error) {
	if ndirs < int(NumDirs) || ndirs > int(MaxDirs) {
		return nil, fmt.Errorf("arch: %d link directions not decodable: %w", ndirs, diag.ErrConfigInvalid)
	}
	if len(w) != WordSize(ndirs) {
		return nil, fmt.Errorf("arch: word length %d, want %d: %w", len(w), WordSize(ndirs), diag.ErrConfigInvalid)
	}
	rw0, mem, immOff := 3+ndirs, 5+ndirs, 6+ndirs
	imm := int64(int16(binary.LittleEndian.Uint16(w[immOff:])))
	in := &Instr{Op: ir.OpKind(w[0])}
	in.SrcA = decodeSel(w[1], imm)
	in.SrcB = decodeSel(w[2], imm)
	for d := 0; d < ndirs; d++ {
		in.OutSel[d] = decodeSel(w[3+d], imm)
	}
	for i := 0; i < 2; i++ {
		b := w[rw0+i]
		if b>>5 == selNone {
			continue
		}
		sel := (b & 0xE0) | ((b >> 2) & 7)
		in.RegWr = append(in.RegWr, RegWrite{Reg: int(b & 3), Src: decodeSel(sel, imm)})
	}
	if w[mem]&1 != 0 {
		in.MemRead = MemOp{Active: true}
	}
	if w[mem]&2 != 0 {
		sel := (w[mem] & 0xE0) | ((w[mem] >> 2) & 7)
		in.MemWrite = MemOp{Active: true, Src: decodeSel(sel, imm)}
	}
	return in, nil
}

func decodeSel(b byte, imm int64) Operand {
	switch b >> 5 {
	case selIn:
		return FromIn(Dir(b & 7))
	case selALU:
		return FromALU()
	case selReg:
		return FromReg(int(b & 31))
	case selConst:
		return FromConst(imm)
	case selMem:
		return FromMem()
	case selHold:
		return Hold()
	}
	return Operand{}
}

// Decode reconstructs a configuration from the image (without the
// simulation-only memory tags and provenance comments).
func (bs *Bitstream) Decode(f Fabric) (*Config, error) {
	cfg := NewConfig(f, bs.II)
	for r := 0; r < f.Rows; r++ {
		for c := 0; c < f.Cols; c++ {
			for t := 0; t < bs.II; t++ {
				in, err := DecodeInstr(bs.Words[r][c][bs.Schedule[r][c][t]], bs.NDirs)
				if err != nil {
					return nil, err
				}
				cfg.Slots[r][c][t] = *in
			}
		}
	}
	return cfg, nil
}
