// Package viz renders CGRA mapping schedules as text: the space-time grid
// view of Figure 2 (which PE executes what at which cycle) and per-PE
// configuration listings.
package viz

import (
	"fmt"
	"strings"

	"himap/internal/arch"
)

// cellOf abbreviates one instruction for the grid view.
func cellOf(in *arch.Instr) string {
	switch {
	case in.Op.IsCompute():
		return in.Op.String()
	case in.MemRead.Active && in.MemWrite.Active:
		return "ld/st"
	case in.MemRead.Active:
		return "ld"
	case in.MemWrite.Active:
		return "st"
	}
	for d := arch.Dir(0); d < arch.MaxDirs; d++ {
		if in.OutSel[d].Kind != arch.OpdNone && in.OutSel[d].Kind != arch.OpdHold {
			return "rt"
		}
	}
	if len(in.RegWr) > 0 {
		return "rf"
	}
	if in.IsNop() {
		return "."
	}
	return "~"
}

// ScheduleGrid renders the II-cycle schedule, one PE grid per cycle.
func ScheduleGrid(cfg *arch.Config) string {
	var b strings.Builder
	width := 5
	for t := 0; t < cfg.II; t++ {
		fmt.Fprintf(&b, "cycle %d (of II=%d)\n", t, cfg.II)
		for r := 0; r < cfg.Fabric.Rows; r++ {
			for c := 0; c < cfg.Fabric.Cols; c++ {
				cell := cellOf(&cfg.Slots[r][c][t])
				if len(cell) > width-1 {
					cell = cell[:width-1]
				}
				fmt.Fprintf(&b, "%-*s", width, cell)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// PEProgram lists PE (r, c)'s instruction stream.
func PEProgram(cfg *arch.Config, r, c int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "PE(%d,%d) program (II=%d, %d unique words):\n", r, c, cfg.II, cfg.UniqueInstrs(r, c))
	for t := 0; t < cfg.II; t++ {
		in := &cfg.Slots[r][c][t]
		fmt.Fprintf(&b, "  t%-3d %s", t, in.String())
		if in.Comment != "" {
			fmt.Fprintf(&b, "   ; %s", in.Comment)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// UtilizationMap renders per-PE FU utilization as a percentage grid.
func UtilizationMap(cfg *arch.Config) string {
	var b strings.Builder
	for r := 0; r < cfg.Fabric.Rows; r++ {
		for c := 0; c < cfg.Fabric.Cols; c++ {
			busy := 0
			for t := 0; t < cfg.II; t++ {
				if cfg.Slots[r][c][t].Op.IsCompute() {
					busy++
				}
			}
			fmt.Fprintf(&b, "%4d%%", busy*100/cfg.II)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
