package ir

import (
	"strings"
	"testing"
)

// build2DDFG builds a bx-by-by DFG of a BiCG-like structure: per iteration
// one load, one mul, one add; add accumulates along dimension 0, mul's
// second operand comes from dimension 1's neighbor (route chain).
func build2DDFG(t *testing.T, bx, by int) *DFG {
	t.Helper()
	d := NewDFG([]int{bx, by})
	type key struct{ i, j int }
	adds := map[key]int{}
	routes := map[key]int{}
	ForEachPoint([]int{bx, by}, func(v IterVec) {
		i, j := v[0], v[1]
		iter := v.Clone()
		ld := d.AddNode(&Node{Kind: OpLoad, Name: "ldA", BodyOp: 0, Iter: iter, Tensor: "A", Index: iter})
		rt := d.AddNode(&Node{Kind: OpRoute, Name: "r", BodyOp: 1, Iter: iter})
		if j == 0 {
			src := d.AddNode(&Node{Kind: OpLoad, Name: "ldR", BodyOp: -1, Iter: iter, Tensor: "R", Index: IterVec{i}})
			d.AddEdge(src.ID, rt.ID, 0)
		} else {
			d.AddDistance(IterVec{0, 1})
			d.AddEdge(routes[key{i, j - 1}], rt.ID, 0)
		}
		routes[key{i, j}] = rt.ID
		mul := d.AddNode(&Node{Kind: OpMul, Name: "mul", BodyOp: 2, Iter: iter})
		d.AddEdge(ld.ID, mul.ID, 0)
		d.AddEdge(rt.ID, mul.ID, 1)
		add := d.AddNode(&Node{Kind: OpAdd, Name: "add", BodyOp: 3, Iter: iter})
		d.AddEdge(mul.ID, add.ID, 0)
		if i == 0 {
			init := d.AddNode(&Node{Kind: OpLoad, Name: "init", BodyOp: -1, Iter: iter, Tensor: "S0", Index: IterVec{j}})
			d.AddEdge(init.ID, add.ID, 1)
		} else {
			d.AddDistance(IterVec{1, 0})
			d.AddEdge(adds[key{i - 1, j}], add.ID, 1)
		}
		adds[key{i, j}] = add.ID
	})
	if err := d.Validate(); err != nil {
		t.Fatalf("test DFG invalid: %v", err)
	}
	return d
}

// TestBuildISDGClusters: every node lies in exactly one cluster, the one
// ClusterOf names, and ClusterAt finds each cluster at its own iteration
// on a block that is not square.
func TestBuildISDGClusters(t *testing.T) {
	d := build2DDFG(t, 3, 5)
	g, err := BuildISDG(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Clusters) != 15 {
		t.Fatalf("clusters = %d, want 15", len(g.Clusters))
	}
	covered := 0
	for _, c := range g.Clusters {
		covered += len(c.Nodes)
		for _, id := range c.Nodes {
			if g.ClusterOf(id) != c.ID || !d.Nodes[id].Iter.Equal(c.Iter) {
				t.Errorf("node %v in cluster %d at %v; ClusterOf says %d", d.Nodes[id], c.ID, c.Iter, g.ClusterOf(id))
			}
		}
		if got := g.ClusterAt(c.Iter); got != c {
			t.Errorf("ClusterAt(%v) = %+v, want cluster %d", c.Iter, got, c.ID)
		}
	}
	if covered != len(d.Nodes) {
		t.Errorf("clusters hold %d of %d nodes", covered, len(d.Nodes))
	}
	c := g.ClusterAt(IterVec{1, 1})
	if c == nil {
		t.Fatal("no cluster at (1,1)")
	}
	// Interior cluster: load, route, mul, add.
	if len(c.Nodes) != 4 {
		t.Errorf("interior cluster has %d nodes, want 4", len(c.Nodes))
	}
	for _, iv := range []IterVec{{3, 0}, {0, 5}, {-1, 0}, {0}, {0, 0, 0}} {
		if c := g.ClusterAt(iv); c != nil {
			t.Errorf("ClusterAt(%v) = cluster %d, want nil", iv, c.ID)
		}
	}
}

func TestExtractIDFGInterior(t *testing.T) {
	d := build2DDFG(t, 4, 4)
	g, err := BuildISDG(d)
	if err != nil {
		t.Fatal(err)
	}
	f := ExtractIDFG(g, g.ClusterAt(IterVec{1, 1}).ID)
	if f.NumCompute() != 2 {
		t.Errorf("interior NumCompute = %d, want 2", f.NumCompute())
	}
	if len(f.Inputs) != 2 {
		t.Errorf("interior inputs = %d, want 2 (route-in, acc-in)", len(f.Inputs))
	}
	if len(f.Outputs) != 2 {
		t.Errorf("interior outputs = %d, want 2 (route-out, acc-out)", len(f.Outputs))
	}
	for _, p := range f.Inputs {
		if p.Dist.ManhattanNorm() != 1 {
			t.Errorf("input dist %v not unit", p.Dist)
		}
		if !p.Dist.Neg().LexNonNegative() {
			t.Errorf("input dist %v should point to an earlier iteration", p.Dist)
		}
	}
}

func TestStructuralClasses2D(t *testing.T) {
	// A 2-D kernel with dependencies in both dimensions has 3x3 = 9
	// boundary classes once the block is at least 3 wide in each dim
	// (first / middle / last per dimension) — Table II's BiCG/ATAX/MVT value.
	for _, b := range []int{3, 4, 6, 8} {
		d := build2DDFG(t, b, b)
		g, err := BuildISDG(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := CountStructuralClasses(g); got != 9 {
			t.Errorf("b=%d: structural classes = %d, want 9", b, got)
		}
	}
	// At b=2 every iteration touches a boundary: 4 distinct classes.
	d := build2DDFG(t, 2, 2)
	g, err := BuildISDG(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := CountStructuralClasses(g); got != 4 {
		t.Errorf("b=2: structural classes = %d, want 4", got)
	}
}

func TestStructuralSignatureDistinguishesBoundary(t *testing.T) {
	d := build2DDFG(t, 4, 4)
	g, err := BuildISDG(d)
	if err != nil {
		t.Fatal(err)
	}
	sig := func(iv IterVec) string {
		return ExtractIDFG(g, g.ClusterAt(iv).ID).StructuralSignature()
	}
	if sig(IterVec{1, 1}) != sig(IterVec{2, 2}) {
		t.Error("two interior iterations should share a signature")
	}
	if sig(IterVec{0, 0}) == sig(IterVec{1, 1}) {
		t.Error("corner and interior must differ")
	}
	if sig(IterVec{0, 1}) == sig(IterVec{1, 0}) {
		t.Error("top edge and left edge must differ")
	}
}

// chainDFG builds a hand-made DFG with one route node per iteration,
// chained in order, for the given block (nil: Block left unset).
func chainDFG(block []int, iters ...IterVec) *DFG {
	d := NewDFG(block)
	ld := d.AddNode(&Node{Kind: OpLoad, Name: "ld", BodyOp: -1, Iter: iters[0], Tensor: "A", Index: IterVec{0}})
	prev := ld.ID
	for i, it := range iters {
		n := d.AddNode(&Node{Kind: OpRoute, Name: "r", BodyOp: 0, Iter: it})
		if i > 0 && len(it) == len(iters[i-1]) && !it.Equal(iters[i-1]) {
			d.AddDistance(it.Sub(iters[i-1]))
		}
		d.AddEdge(prev, n.ID, 0)
		prev = n.ID
	}
	return d
}

// TestBuildISDGRejectsStrayIteration: an iteration outside the block, one
// of the wrong dimensionality, a node added with no iteration and a DFG
// that states no block are returned errors, not index panics or tables
// sized by a stray point.
func TestBuildISDGRejectsStrayIteration(t *testing.T) {
	for name, tc := range map[string]struct {
		d    *DFG
		want string
	}{
		"past the block":      {chainDFG([]int{2, 2}, IterVec{0, 0}, IterVec{1, 2}), "outside block"},
		"before the block":    {chainDFG([]int{2, 2}, IterVec{0, 0}, IterVec{-1, 0}), "outside block"},
		"wrong dimension":     {chainDFG([]int{2, 2}, IterVec{0, 0}, IterVec{1}), "outside block"},
		"no iteration vector": {chainDFG([]int{2, 2}, IterVec{0, 0}, nil), "outside block"},
		"no block":            {chainDFG(nil, IterVec{0, 0}, IterVec{0, 1}, IterVec{1, 1}), "no block"},
	} {
		if err := tc.d.Validate(); err != nil {
			t.Fatalf("%s: the DFG itself is malformed: %v", name, err)
		}
		g, err := BuildISDG(tc.d)
		if err == nil {
			t.Errorf("%s: BuildISDG accepted it (%d clusters)", name, len(g.Clusters))
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not say %q", name, err, tc.want)
		}
	}
}
