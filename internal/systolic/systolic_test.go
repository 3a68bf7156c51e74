package systolic

import (
	"testing"

	"himap/internal/ir"
	"himap/internal/kernel"
)

func TestGEMMClassicScheme(t *testing.T) {
	// The classic GEMM systolic mapping (§V Fig. 5): space = (i, j),
	// time = i + j + k. All three dependencies single-cycle single-hop.
	s := Scheme{SpaceDims: []int{0, 1}, TimePerm: []int{2}, Skew: []int{1, 1}}
	m := s.Realize([]int{2, 2, 2})
	if m.IIS != 2 {
		t.Errorf("II_S = %d, want 2", m.IIS)
	}
	// Fig. 5: iteration (0,1,1) maps to space-time position (2,0,1).
	tt, x, y := m.Place(ir.IterVec{0, 1, 1})
	if tt != 2 || x != 0 || y != 1 {
		t.Errorf("Place(0,1,1) = (%d,%d,%d), want (2,0,1)", tt, x, y)
	}
	deps := []ir.IterVec{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}}
	for _, d := range deps {
		if got := m.Classify(d); got != DepLocal {
			t.Errorf("dep %v classified %v, want local", d, got)
		}
	}
	if err := m.Validate(deps); err != nil {
		t.Error(err)
	}
}

func TestVSAShape(t *testing.T) {
	s := Scheme{SpaceDims: []int{0, 1}, TimePerm: []int{2}, Skew: []int{1, 1}}
	m := s.Realize([]int{4, 3, 5})
	vx, vy := m.VSAShape()
	if vx != 4 || vy != 3 {
		t.Errorf("VSAShape = (%d,%d), want (4,3)", vx, vy)
	}
}

func TestLinearArrayScheme(t *testing.T) {
	// 2-D kernel on a 1-D (linear) VSA, as in the §II motivating example:
	// one space dimension; the other dimension is sequenced in time.
	deps := []ir.IterVec{{1, 0}, {0, 1}}
	s := Scheme{SpaceDims: []int{0}, TimePerm: []int{1}, Skew: []int{1}}
	m := s.Realize([]int{4, 4})
	if m.IIS != 4 {
		t.Errorf("II_S = %d, want 4", m.IIS)
	}
	if err := m.Validate(deps); err != nil {
		t.Fatal(err)
	}
	vx, vy := m.VSAShape()
	if vx != 4 || vy != 1 {
		t.Errorf("VSAShape = (%d,%d), want (4,1)", vx, vy)
	}
}

func TestCausalityRejected(t *testing.T) {
	// Skew 0 on a dimension that carries a dependence: t distance 0 —
	// invalid.
	s := Scheme{SpaceDims: []int{0, 1}, TimePerm: []int{}, Skew: []int{0, 1}}
	m := s.Realize([]int{3, 3})
	if err := m.Validate([]ir.IterVec{{1, 0}}); err == nil {
		t.Error("zero time distance must be rejected")
	}
}

func TestHopsExceedingTimeRejected(t *testing.T) {
	s := Scheme{SpaceDims: []int{0, 1}, TimePerm: []int{}, Skew: []int{1, 1}}
	m := s.Realize([]int{4, 4})
	// Dependence (1,-1): tr = 0 — invalid (and 2 hops).
	if m.Classify(ir.IterVec{1, -1}) != DepInvalid {
		t.Error("(1,-1) under skew (1,1) must be invalid")
	}
}

func TestForwardingDecomposition(t *testing.T) {
	s := Scheme{SpaceDims: []int{0, 1}, TimePerm: []int{}, Skew: []int{1, 1}}
	m := s.Realize([]int{6, 6})
	d := ir.IterVec{0, 3}
	if m.Classify(d) != DepForward {
		t.Fatalf("(0,3) should need forwarding, got %v", m.Classify(d))
	}
	e, g, err := m.ForwardStep(d)
	if err != nil {
		t.Fatal(err)
	}
	if g != 3 || !e.Equal(ir.IterVec{0, 1}) {
		t.Errorf("ForwardStep = %v × %d", e, g)
	}
	// Non-decomposable multi-hop: (1,2) has gcd 1.
	bad := ir.IterVec{1, 2}
	if m.Classify(bad) == DepForward {
		if _, _, err := m.ForwardStep(bad); err == nil {
			t.Error("(1,2) must not decompose")
		}
	}
}

func TestInjectivity(t *testing.T) {
	s := Scheme{SpaceDims: []int{0, 1}, TimePerm: []int{2}, Skew: []int{1, 1}}
	m := s.Realize([]int{3, 3, 4})
	if err := m.CheckInjective(); err != nil {
		t.Error(err)
	}
	// A broken mapping: two dims in space, third dim ignored in time.
	broken := &Mapping{
		Dim: 3, H: []int{1, 1, 0},
		S:     [][]int{{1, 0, 0}, {0, 1, 0}},
		Block: []int{2, 2, 2}, IIS: 1,
	}
	if err := broken.CheckInjective(); err == nil {
		t.Error("ignoring a dimension must collide")
	}
}

func TestSearchFindsLocalSchemesForAllKernels(t *testing.T) {
	// Every Table-II kernel must admit a fully-local (no forwarding)
	// 2-D-space systolic mapping — the property HiMap relies on for its
	// evaluation (§VI reports all eight mapped).
	for _, k := range kernel.Evaluation() {
		deps := k.DistanceVectors()
		block := k.UniformBlock(4)
		cands := SearchN(deps, block, 2, 1)
		if len(cands) == 0 {
			t.Errorf("%s: no valid scheme", k.Name)
			continue
		}
		best := cands[0]
		for _, d := range deps {
			if best.Mapping.Classify(d) != DepLocal {
				t.Errorf("%s: best scheme %v leaves dep %v non-local", k.Name, best.Scheme, d)
			}
		}
	}
}

func TestSearchLinearForBiCG(t *testing.T) {
	// The §II example: BiCG on a linear VSA.
	deps := kernel.BICG().DistanceVectors()
	cands := SearchN(deps, []int{4, 4}, 1, 1)
	if len(cands) == 0 {
		t.Fatal("no linear scheme for BiCG")
	}
	m := cands[0].Mapping
	vx, vy := m.VSAShape()
	if vy != 1 {
		t.Errorf("linear scheme has vy = %d", vy)
	}
	if vx != 4 {
		t.Errorf("linear scheme has vx = %d", vx)
	}
}

func TestSearchRankingPrefersLocal(t *testing.T) {
	// With dep (0,2), schemes mapping dim 1 to space need forwarding;
	// schemes sequencing dim 1 in time are local and must rank first.
	deps := []ir.IterVec{{1, 0}, {0, 2}}
	cands := SearchN(deps, []int{4, 4}, 0, 1)
	if len(cands) == 0 {
		t.Fatal("no scheme")
	}
	best := cands[0]
	for _, d := range deps {
		if best.Mapping.Classify(d) == DepForward {
			t.Errorf("best scheme %v should avoid forwarding for %v", best.Scheme, d)
		}
	}
}

func TestSearchDeterministic(t *testing.T) {
	deps := kernel.GEMM().DistanceVectors()
	a := SearchN(deps, []int{4, 4, 4}, 2, 1)
	b := SearchN(deps, []int{4, 4, 4}, 2, 1)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Scheme.String() != b[i].Scheme.String() || a[i].Score != b[i].Score {
			t.Fatalf("entry %d differs: %v vs %v", i, a[i].Scheme, b[i].Scheme)
		}
	}
}

func TestPlaceLinearityProperty(t *testing.T) {
	// Place is linear: Place(a+b) = Place(a) + Place(b).
	s := Scheme{SpaceDims: []int{0, 2}, TimePerm: []int{1, 3}, Skew: []int{1, 0}}
	m := s.Realize([]int{3, 4, 3, 2})
	pts := []ir.IterVec{{1, 2, 0, 1}, {2, 1, 2, 0}, {0, 3, 1, 1}}
	for _, a := range pts {
		for _, b := range pts {
			ta, xa, ya := m.Place(a)
			tb, xb, yb := m.Place(b)
			ts, xs, ys := m.Place(a.Add(b))
			if ts != ta+tb || xs != xa+xb || ys != ya+yb {
				t.Fatalf("linearity violated at %v + %v", a, b)
			}
		}
	}
}

func TestTTMSchemeAvoidsLongHolds(t *testing.T) {
	// TTM's best scheme should make the accumulation (l) and both reuse
	// dependencies short: the known-good allocation is space=(i,k) with
	// j and l in time (weights chosen mixed-radix).
	k := kernel.TTM()
	deps := k.DistanceVectors()
	cands := SearchN(deps, []int{3, 3, 3, 3}, 2, 1)
	if len(cands) == 0 {
		t.Fatal("no TTM scheme")
	}
	best := cands[0].Mapping
	maxTR := 0
	for _, d := range deps {
		tr, _, _ := best.DepOffset(d)
		if tr > maxTR {
			maxTR = tr
		}
	}
	if maxTR > 1 {
		t.Errorf("best TTM scheme %v has max time distance %d, want 1", cands[0].Scheme, maxTR)
	}
}

// VSAShape returns the spatial extents the mapping needs: the maximum
// (x+1, y+1) over the block.
func (m *Mapping) VSAShape() (vx, vy int) {
	vx, vy = 1, 1
	ir.ForEachPoint(m.Block, func(iter ir.IterVec) {
		_, x, y := m.Place(iter)
		if x+1 > vx {
			vx = x + 1
		}
		if y+1 > vy {
			vy = y + 1
		}
	})
	return vx, vy
}
