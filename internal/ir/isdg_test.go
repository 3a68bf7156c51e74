package ir

import (
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
		ld := d.AddNode(Node{Kind: OpLoad, Name: "ldA", BodyOp: 0, Iter: iter, Tensor: "A", Index: iter})
		rt := d.AddNode(Node{Kind: OpRoute, Name: "r", BodyOp: 1, Iter: iter})
		if j == 0 {
			src := d.AddNode(Node{Kind: OpLoad, Name: "ldR", BodyOp: -1, Iter: iter, Tensor: "R", Index: IterVec{i}})
			d.AddEdge(src.ID, rt.ID, 0)
		} else {
			d.AddEdge(routes[key{i, j - 1}], rt.ID, 0)
		}
		routes[key{i, j}] = rt.ID
		mul := d.AddNode(Node{Kind: OpMul, Name: "mul", BodyOp: 2, Iter: iter})
		d.AddEdge(ld.ID, mul.ID, 0)
		d.AddEdge(rt.ID, mul.ID, 1)
		add := d.AddNode(Node{Kind: OpAdd, Name: "add", BodyOp: 3, Iter: iter})
		d.AddEdge(mul.ID, add.ID, 0)
		if i == 0 {
			init := d.AddNode(Node{Kind: OpLoad, Name: "init", BodyOp: -1, Iter: iter, Tensor: "S0", Index: IterVec{j}})
			d.AddEdge(init.ID, add.ID, 1)
		} else {
			d.AddEdge(adds[key{i - 1, j}], add.ID, 1)
		}
		adds[key{i, j}] = add.ID
	})
	if err := d.Validate(); err != nil {
		t.Fatalf("test DFG invalid: %v", err)
	}
	return d
}

func TestBuildISDGClusters(t *testing.T) {
	d := build2DDFG(t, 4, 4)
	g, err := BuildISDG(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Clusters) != 16 {
		t.Fatalf("clusters = %d, want 16", len(g.Clusters))
	}
	c := g.ClusterAt(IterVec{1, 1})
	if c == nil {
		t.Fatal("no cluster at (1,1)")
	}
	// Interior cluster: load, route, mul, add.
	if len(c.Nodes) != 4 {
		t.Errorf("interior cluster has %d nodes, want 4", len(c.Nodes))
	}
	for _, id := range c.Nodes {
		if g.ClusterOf(id) != c.ID {
			t.Errorf("ClusterOf(%d) = %d, want %d", id, g.ClusterOf(id), c.ID)
		}
	}
}

func TestISDGDistanceVectors(t *testing.T) {
	d := build2DDFG(t, 4, 4)
	g, err := BuildISDG(d)
	if err != nil {
		t.Fatal(err)
	}
	dists := g.DistanceVectors()
	if len(dists) != 2 {
		t.Fatalf("distance vectors = %v, want 2 of them", dists)
	}
	want := map[string]bool{"1,0": true, "0,1": true}
	for _, dv := range dists {
		if !want[dv.Key()] {
			t.Errorf("unexpected distance vector %v", dv)
		}
	}
}

func TestISDGEdgesDeduplicated(t *testing.T) {
	d := build2DDFG(t, 3, 3)
	g, err := BuildISDG(d)
	if err != nil {
		t.Fatal(err)
	}
	type ends struct{ f, to int }
	seen := map[ends]bool{}
	for _, e := range g.Edges {
		p := ends{e.From, e.To}
		if seen[p] {
			t.Errorf("duplicate cluster edge %d->%d", e.From, e.To)
		}
		seen[p] = true
	}
	// 3x3 grid with unit deps in both dims: 2*3*2 = 12 edges.
	if len(g.Edges) != 12 {
		t.Errorf("cluster edges = %d, want 12", len(g.Edges))
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
	ld := d.AddNode(Node{Kind: OpLoad, Name: "ld", BodyOp: -1, Iter: iters[0], Tensor: "A", Index: IterVec{0}})
	prev := ld.ID
	for _, it := range iters {
		n := d.AddNode(Node{Kind: OpRoute, Name: "r", BodyOp: 0, Iter: it})
		d.AddEdge(prev, n.ID, 0)
		prev = n.ID
	}
	return d
}

// TestBuildISDGWithoutBlock: a hand-built DFG that never states its
// block is indexed over the bounding box of its iterations — negative
// coordinates included — and ClusterAt answers nil everywhere else.
func TestBuildISDGWithoutBlock(t *testing.T) {
	d := chainDFG(nil, IterVec{-1, 2}, IterVec{0, 2}, IterVec{0, 4}, IterVec{1, 3})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := BuildISDG(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Clusters) != 4 || len(g.Edges) != 3 {
		t.Fatalf("%d clusters, %d edges; want 4 and 3", len(g.Clusters), len(g.Edges))
	}
	if c := g.ClusterAt(IterVec{-1, 2}); c == nil || c.ID != 0 || len(c.Nodes) != 2 {
		t.Errorf("ClusterAt(-1,2) = %+v, want cluster 0 with the load and the first route", c)
	}
	if c := g.ClusterAt(IterVec{1, 3}); c == nil || c.ID != 3 {
		t.Errorf("ClusterAt(1,3) = %+v, want cluster 3", c)
	}
	for _, iv := range []IterVec{{0, 3}, {-2, 2}, {2, 3}, {0, 5}, {0}, {0, 2, 0}} {
		if c := g.ClusterAt(iv); c != nil {
			t.Errorf("ClusterAt(%v) = cluster %d, want nil", iv, c.ID)
		}
	}
	if got := g.Edges[2].Dist; !got.Equal(IterVec{1, -1}) {
		t.Errorf("edge (0,4)->(1,3) has distance %v", got)
	}
}

// TestBuildISDGRejectsStrayIteration: an iteration outside a stated
// block, one of the wrong dimensionality, and — with no block — one so
// far from the rest that the bounding box is no iteration space, are
// returned errors, not index panics or tables sized by the stray point.
func TestBuildISDGRejectsStrayIteration(t *testing.T) {
	for name, d := range map[string]*DFG{
		"past the block":    chainDFG([]int{2, 2}, IterVec{0, 0}, IterVec{1, 2}),
		"before the block":  chainDFG([]int{2, 2}, IterVec{0, 0}, IterVec{-1, 0}),
		"wrong dimension":   chainDFG([]int{2, 2}, IterVec{0, 0}, IterVec{1}),
		"no block, far off": chainDFG(nil, IterVec{0, 0}, IterVec{1 << 40, 1 << 40}),
		"no block, ragged":  chainDFG(nil, IterVec{0, 0}, IterVec{1}),
	} {
		g, err := BuildISDG(d)
		if err == nil {
			t.Errorf("%s: BuildISDG accepted it (%d clusters)", name, len(g.Clusters))
		}
	}
}
