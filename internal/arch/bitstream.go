package arch

import (
	"encoding/binary"
	"fmt"
	"himap/internal/diag"
)

// Bitstream encoding of configurations: the binary image a PE's
// configuration memory would hold. Each instruction packs into a
// fixed-width word whose size depends on the fabric's link-direction
// count (WordSize = 8 + ndirs bytes; 12 for 4-direction fabrics):
//
//	byte 0            opcode
//	byte 1            source A selector
//	byte 2            source B selector
//	bytes 3..2+ndirs  output register selectors (N, S, E, W[, NE, NW, SE, SW])
//	next 2 bytes      register write ports 0 and 1 (selector + register index)
//	next byte         memory-port flags (bit0 read, bit1 write) + store selector
//	last 2 bytes      16-bit signed immediate
//
// Operand selectors: bits 7..5 = kind, bits 4..0 = payload (direction or
// register index). The 4-direction layout is byte-identical to the
// pre-Fabric fixed 12-byte format. Memory-access correlation tags
// (IOSpec) are simulation metadata — in hardware the address generation
// walks the block iteration space — and are carried alongside the words,
// not inside them.
const (
	selNone  = 0
	selIn    = 1
	selALU   = 2
	selReg   = 3
	selConst = 4
	selMem   = 5
	selHold  = 6
)

// WordSize returns the configuration word size for a fabric with ndirs
// link directions per PE.
func WordSize(ndirs int) int { return 8 + ndirs }

func encodeSel(o Operand) (byte, *int64, error) {
	switch o.Kind {
	case OpdNone:
		return selNone << 5, nil, nil
	case OpdIn:
		return selIn<<5 | byte(o.Dir), nil, nil
	case OpdALU:
		return selALU << 5, nil, nil
	case OpdReg:
		return selReg<<5 | byte(o.Reg), nil, nil
	case OpdConst:
		if o.Const < -(1<<15) || o.Const >= 1<<15 {
			return 0, nil, fmt.Errorf("arch: immediate %d exceeds the 16-bit configuration field: %w", o.Const, diag.ErrConfigInvalid)
		}
		v := o.Const
		return selConst << 5, &v, nil
	case OpdMem:
		return selMem << 5, nil, nil
	case OpdHold:
		return selHold << 5, nil, nil
	}
	return 0, nil, fmt.Errorf("arch: unencodable operand %v: %w", o, diag.ErrConfigInvalid)
}

// EncodeInstr packs one instruction into a WordSize(ndirs)-long slice.
func EncodeInstr(in *Instr, ndirs int) ([]byte, error) {
	if ndirs < int(NumDirs) || ndirs > int(MaxDirs) {
		return nil, fmt.Errorf("arch: %d link directions not encodable: %w", ndirs, diag.ErrConfigInvalid)
	}
	for d := ndirs; d < int(MaxDirs); d++ {
		if in.OutSel[d].Kind != OpdNone {
			return nil, fmt.Errorf("arch: OutSel %s set but word has %d direction slots: %w", Dir(d), ndirs, diag.ErrConfigInvalid)
		}
	}
	w := make([]byte, WordSize(ndirs))
	w[0] = byte(in.Op)
	var imm *int64
	note := func(b byte, v *int64, err error) (byte, error) {
		if err != nil {
			return 0, err
		}
		if v != nil {
			if imm != nil && *imm != *v {
				return 0, fmt.Errorf("arch: instruction needs two immediates (%d, %d); one field available: %w", *imm, *v, diag.ErrConfigInvalid)
			}
			imm = v
		}
		return b, nil
	}
	var err error
	if w[1], err = note(encodeSel(in.SrcA)); err != nil {
		return nil, err
	}
	if w[2], err = note(encodeSel(in.SrcB)); err != nil {
		return nil, err
	}
	for d := 0; d < ndirs; d++ {
		if w[3+d], err = note(encodeSel(in.OutSel[d])); err != nil {
			return nil, err
		}
	}
	rw0, mem, immOff := 3+ndirs, 5+ndirs, 6+ndirs
	if len(in.RegWr) > 2 {
		return nil, fmt.Errorf("arch: %d register writes exceed the 2 encodable ports: %w", len(in.RegWr), diag.ErrConfigInvalid)
	}
	for i, rw := range in.RegWr {
		sel, err2 := note(encodeSel(rw.Src))
		if err2 != nil {
			return nil, err2
		}
		// selector kind in bits 7..5, payload bits 4..3 unused for dirs>4;
		// pack the destination register into bits 2..0 of the next nibble:
		// byte = kindsel | reg<<0 is ambiguous for OpdReg sources (payload
		// collision), so register-write sources use a dedicated layout:
		// bits 7..5 kind, bits 4..2 payload, bits 1..0 destination.
		payload := sel & 31
		w[rw0+i] = (sel & 0xE0) | ((payload & 7) << 2) | byte(rw.Reg&3)
	}
	if in.MemRead.Active {
		w[mem] |= 1
	}
	if in.MemWrite.Active {
		w[mem] |= 2
		sel, err2 := note(encodeSel(in.MemWrite.Src))
		if err2 != nil {
			return nil, err2
		}
		w[mem] |= sel & 0xE0
		w[mem] |= (sel & 7) << 2 // payload (dir/reg low bits)
	}
	if imm != nil {
		binary.LittleEndian.PutUint16(w[immOff:], uint16(int16(*imm)))
	}
	return w, nil
}

// Bitstream is the full binary configuration image plus size accounting.
type Bitstream struct {
	// Words[r][c] holds PE (r,c)'s deduplicated configuration words.
	Words [][][][]byte
	// Schedule[r][c][t] indexes into Words[r][c] — the program-counter ROM
	// that regenerates the II-cycle stream from unique words (§V).
	Schedule [][][]int
	II       int
	// NDirs is the per-PE link-direction count the words were encoded
	// for; it fixes the word size (WordSize(NDirs)).
	NDirs int
}

// Encode produces the configuration-memory image: per PE the deduplicated
// instruction words plus the schedule ROM, exactly the storage scheme the
// paper describes ("HiMap keeps unique instructions in the configuration
// memory of each CGRA PE ... PE program counters generate the instruction
// stream").
func Encode(cfg *Config) (*Bitstream, error) {
	a := cfg.Fabric.CGRA
	ndirs := cfg.Fabric.NumLinkDirs()
	bs := &Bitstream{II: cfg.II, NDirs: ndirs}
	bs.Words = make([][][][]byte, a.Rows)
	bs.Schedule = make([][][]int, a.Rows)
	for r := 0; r < a.Rows; r++ {
		bs.Words[r] = make([][][]byte, a.Cols)
		bs.Schedule[r] = make([][]int, a.Cols)
		for c := 0; c < a.Cols; c++ {
			index := map[string]int{}
			bs.Schedule[r][c] = make([]int, cfg.II)
			for t := 0; t < cfg.II; t++ {
				w, err := EncodeInstr(&cfg.Slots[r][c][t], ndirs)
				if err != nil {
					return nil, fmt.Errorf("PE(%d,%d) slot %d: %w", r, c, t, err) // err wraps ErrConfigInvalid
				}
				key := string(w)
				idx, ok := index[key]
				if !ok {
					idx = len(bs.Words[r][c])
					index[key] = idx
					bs.Words[r][c] = append(bs.Words[r][c], w)
				}
				bs.Schedule[r][c][t] = idx
			}
			if len(bs.Words[r][c]) > a.ConfigDepth {
				return nil, fmt.Errorf("PE(%d,%d): %d words exceed configuration depth %d: %w",
					r, c, len(bs.Words[r][c]), a.ConfigDepth, diag.ErrConfigInvalid)
			}
		}
	}
	return bs, nil
}

// TotalBytes returns the image size: words plus the schedule ROM
// (ceil(log2(words)) bits per slot, byte-rounded per PE).
func (bs *Bitstream) TotalBytes() int {
	total := 0
	for r := range bs.Words {
		for c := range bs.Words[r] {
			total += len(bs.Words[r][c]) * WordSize(bs.NDirs)
			bits := 1
			for 1<<bits < len(bs.Words[r][c]) {
				bits++
			}
			total += (bs.II*bits + 7) / 8
		}
	}
	return total
}

// MaxWordsPerPE returns the deepest per-PE configuration memory use.
func (bs *Bitstream) MaxWordsPerPE() int {
	max := 0
	for r := range bs.Words {
		for c := range bs.Words[r] {
			if n := len(bs.Words[r][c]); n > max {
				max = n
			}
		}
	}
	return max
}
