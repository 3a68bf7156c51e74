package systolic

import (
	"errors"
	"strings"
	"testing"

	"himap/internal/ir"
)

// TestForwardStepRejects: a dependence that is not multi-hop, or whose
// unit step is not a one-hop move forward in time, has no forwarding
// decomposition.
func TestForwardStepRejects(t *testing.T) {
	m := Scheme{SpaceDims: []int{0, 1}, Skew: []int{0, 0}}.Realize([]int{6, 6})
	for _, r := range []struct {
		d    ir.IterVec
		want string
	}{
		{ir.IterVec{0, 1}, "(0,1) is not a multi-hop dependence"},
		{ir.IterVec{0, 2}, "step (0,1) of dependence (0,2) is not single-hop (offset 0,0,1)"},
	} {
		if _, _, err := m.ForwardStep(r.d); !errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), r.want) {
			t.Errorf("ForwardStep(%v) = %v, want ErrInfeasible containing %q", r.d, err, r.want)
		}
	}
	if g := gcd(-4, 6); g != 2 {
		t.Errorf("gcd(-4, 6) = %d, want 2", g)
	}
}

// TestCheckInjectiveOneSpaceRow: a hand-built mapping with a single,
// negative space row is checked over the range that row spans.
func TestCheckInjectiveOneSpaceRow(t *testing.T) {
	m := &Mapping{Dim: 2, H: []int{1, 0}, S: [][]int{{0, -1}}, Block: []int{2, 3}, IIS: 2}
	if err := m.CheckInjective(); err != nil {
		t.Errorf("(i, j) -> (t=i, x=-j) is injective: %v", err)
	}
	m.H, m.IIS = []int{0, 0}, 1
	if err := m.CheckInjective(); !errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), "iterations (0,0) and (1,0) collide at SPE (0,0) slot 0") {
		t.Errorf("(i, j) -> (t=0, x=-j): %v, want the collision of (0,0) and (1,0)", err)
	}
}
