package viz

import (
	"context"
	"strings"
	"testing"

	"himap/internal/arch"
	"himap/internal/himap"
	"himap/internal/ir"
	"himap/internal/kernel"
)

func gemmConfig(t *testing.T) *arch.Config {
	t.Helper()
	res, err := himap.CompileRequest(context.Background(), kernel.GEMM(), arch.DefaultFabric(4, 4), himap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Config
}

func TestScheduleGridShape(t *testing.T) {
	cfg := gemmConfig(t)
	s := ScheduleGrid(cfg)
	if got := strings.Count(s, "cycle "); got != cfg.II {
		t.Errorf("grid has %d cycle headers, want %d", got, cfg.II)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != cfg.II*(1+cfg.Fabric.Rows) {
		t.Errorf("grid has %d lines, want %d", len(lines), cfg.II*(1+cfg.Fabric.Rows))
	}
	if !strings.Contains(s, "mul") || !strings.Contains(s, "add") {
		t.Error("GEMM grid should show mul and add cells")
	}
}

func TestPEProgramContainsInstructions(t *testing.T) {
	cfg := gemmConfig(t)
	s := PEProgram(cfg, 1, 1)
	if !strings.Contains(s, "PE(1,1)") {
		t.Errorf("missing header: %q", s)
	}
	if got := strings.Count(s, "\n  t"); got != cfg.II {
		t.Errorf("program lists %d slots, want %d", got, cfg.II)
	}
}

func TestUtilizationMapFullGEMM(t *testing.T) {
	cfg := gemmConfig(t)
	s := UtilizationMap(cfg)
	if strings.Contains(s, "  0%") {
		t.Errorf("100%%-utilized GEMM shows idle PEs:\n%s", s)
	}
	if got := strings.Count(s, "100%"); got != 16 {
		t.Errorf("%d PEs at 100%%, want 16", got)
	}
}

func TestCellOfClassification(t *testing.T) {
	var in arch.Instr
	if got := cellOf(&in); got != "." {
		t.Errorf("nop cell = %q", got)
	}
	in.MemRead = arch.MemOp{Active: true}
	if got := cellOf(&in); got != "ld" {
		t.Errorf("load cell = %q", got)
	}
	in = arch.Instr{}
	in.OutSel[arch.East] = arch.FromIn(arch.West)
	if got := cellOf(&in); got != "rt" {
		t.Errorf("route cell = %q", got)
	}
	in = arch.Instr{Op: ir.OpMin, SrcA: arch.FromConst(1), SrcB: arch.FromConst(2)}
	if got := cellOf(&in); got != "min" {
		t.Errorf("compute cell = %q", got)
	}
}
