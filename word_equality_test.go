package himap_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"himap"
	"himap/internal/arch"
	"himap/internal/ir"
)

// wordText is the historical identity of a configuration word: its
// rendering with the comment and memory correlation tags dropped.
func wordText(in arch.Instr) string {
	in.Comment, in.MemRead.Tag, in.MemWrite.Tag = "", "", ""
	return in.String()
}

// checkSameWord holds Instr.SameWord to wordText equality on every pair.
func checkSameWord(t *testing.T, words []arch.Instr) {
	t.Helper()
	for i := range words {
		for j := range words {
			if got, want := words[i].SameWord(&words[j]), wordText(words[i]) == wordText(words[j]); got != want {
				t.Fatalf("SameWord = %v, text equality = %v for\n %+v\n %+v", got, want, words[i], words[j])
			}
		}
	}
}

// TestSameWordMatchesRendering: the structural word comparison that
// UniqueInstrs counts with must partition words exactly like the
// rendering it replaced — on seeded random words (drawn from few values
// per field, so equal pairs are common; with stray sources on nops,
// stray fields on every operand kind, unknown kinds, inactive memory
// writes with a source, and comments and tags that must not matter) and
// on every word of the golden mapping table.
func TestSameWordMatchesRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	operand := func() arch.Operand {
		return arch.Operand{
			Kind:  arch.OperandKind(rng.Intn(9)), // 7 and 8 are unknown kinds
			Dir:   arch.Dir(rng.Intn(2)),
			Reg:   rng.Intn(2),
			Const: int64(rng.Intn(2)),
		}
	}
	sparse := func() arch.Operand {
		if rng.Intn(4) > 0 {
			return arch.Operand{}
		}
		return operand()
	}
	tag := func() string { return []string{"", "A@0", "B@1,2"}[rng.Intn(3)] }
	words := make([]arch.Instr, 400)
	for i := range words {
		in := &words[i]
		in.Op = []ir.OpKind{ir.OpNop, ir.OpNop, ir.OpAdd, ir.OpMul}[rng.Intn(4)]
		in.SrcA, in.SrcB = sparse(), sparse()
		in.OutSel[rng.Intn(int(arch.MaxDirs))] = sparse()
		for n := rng.Intn(3); n > 0; n-- {
			in.RegWr = append(in.RegWr, arch.RegWrite{Reg: rng.Intn(2), Src: operand()})
		}
		in.MemRead = arch.MemOp{Active: rng.Intn(2) == 0, Tag: tag()}
		in.MemWrite = arch.MemOp{Active: rng.Intn(2) == 0, Src: sparse(), Tag: tag()}
		in.Comment = tag()
	}
	checkSameWord(t, words)

	for _, row := range goldenRows() {
		if row.req.Options.Workers > 1 || strings.HasPrefix(row.key, "scale/") {
			continue // the same mapping as the Workers-1 row; the same words on 16-64x the PEs
		}
		res, err := himap.CompileRequest(context.Background(), row.req)
		if err != nil {
			continue // rows pinned by their error text have no words
		}
		cfg := res.Config
		for r := range cfg.Slots {
			for c := range cfg.Slots[r] {
				checkSameWord(t, cfg.Slots[r][c])
				texts := map[string]bool{}
				for _, in := range cfg.Slots[r][c] {
					texts[wordText(in)] = true
				}
				if got := cfg.UniqueInstrs(r, c); got != len(texts) {
					t.Fatalf("%s PE(%d,%d): UniqueInstrs = %d, %d distinct renderings", row.label, r, c, got, len(texts))
				}
			}
		}
	}
}
