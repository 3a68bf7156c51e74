package himap

import (
	"fmt"
	"strings"
)

// IterationMap renders the Figure-2-style schedule view: for every cycle
// of one block's steady-state window and every PE, the ID of the unique
// iteration class whose cluster region occupies that space-time slot.
// Identical numbers mark iterations whose computation AND routing are
// replicas of each other — the few the compiler actually mapped in detail.
func (r *Result) IterationMap() string {
	depth, s1, s2 := r.Sub.Depth, r.Sub.S1, r.Sub.S2
	// classAt[t][row][col] for one II_B window.
	classAt := make([][][]int, r.IIB)
	for t := range classAt {
		classAt[t] = make([][]int, r.Fabric.Rows)
		for row := range classAt[t] {
			classAt[t][row] = make([]int, r.Fabric.Cols)
			for col := range classAt[t][row] {
				classAt[t][row][col] = -1
			}
		}
	}
	for _, c := range r.ISDG.Clusters {
		base := r.CP.T[c.ID] * depth
		pr := r.CP.X[c.ID] * s1
		pc := r.CP.Y[c.ID] * s2
		cls := r.ByCluster[c.ID]
		for dt := 0; dt < depth; dt++ {
			t := ((base+dt)%r.IIB + r.IIB) % r.IIB
			for dr := 0; dr < s1; dr++ {
				for dc := 0; dc < s2; dc++ {
					classAt[t][pr+dr][pc+dc] = cls
				}
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "unique-iteration schedule (%d classes, II_B = %d):\n", len(r.Classes), r.IIB)
	for t := 0; t < r.IIB; t++ {
		fmt.Fprintf(&b, "t%-3d ", t)
		for row := 0; row < r.Fabric.Rows; row++ {
			if row > 0 {
				b.WriteString("     ")
			}
			for col := 0; col < r.Fabric.Cols; col++ {
				if cls := classAt[t][row][col]; cls >= 0 {
					fmt.Fprintf(&b, "%3d ", cls)
				} else {
					b.WriteString("  . ")
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
