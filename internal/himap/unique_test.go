package himap

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sort"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/systolic"
)

func placeBICG(t *testing.T, b int) (*ir.ISDG, *ClusterPlace) {
	t.Helper()
	k := kernel.BICG()
	_, g, err := k.BuildISDG([]int{b, b})
	if err != nil {
		t.Fatal(err)
	}
	sch := systolic.Scheme{SpaceDims: []int{0, 1}, TimePerm: nil, Skew: []int{1, 1}}
	m := sch.Realize([]int{b, b})
	if err := m.Validate(k.DistanceVectors()); err != nil {
		t.Fatal(err)
	}
	return g, PlaceClusters(g, m)
}

func TestPlaceClustersMatchesMapping(t *testing.T) {
	g, cp := placeBICG(t, 4)
	for _, c := range g.Clusters {
		tt, x, y := cp.Mapping.Place(c.Iter)
		if cp.T[c.ID] != tt || cp.X[c.ID] != x || cp.Y[c.ID] != y {
			t.Errorf("cluster %v placed (%d,%d,%d), want (%d,%d,%d)",
				c.Iter, cp.T[c.ID], cp.X[c.ID], cp.Y[c.ID], tt, x, y)
		}
	}
}

func TestIdentifyUniqueBICGNine(t *testing.T) {
	for _, b := range []int{3, 4, 6} {
		g, cp := placeBICG(t, b)
		classes, byCluster := IdentifyUnique(g, cp)
		if len(classes) != 9 {
			t.Errorf("b=%d: %d unique classes, want 9 (Table II)", b, len(classes))
		}
		// Membership is a partition.
		seen := map[int]bool{}
		for idx, cl := range classes {
			for _, m := range cl.Members {
				if seen[m] {
					t.Fatalf("cluster %d in two classes", m)
				}
				seen[m] = true
				if byCluster[m] != idx {
					t.Fatalf("byCluster[%d] = %d, want %d", m, byCluster[m], idx)
				}
			}
			if cl.Members[0] != cl.Rep {
				t.Errorf("class %d: representative %d is not the first member %d", idx, cl.Rep, cl.Members[0])
			}
		}
		if len(seen) != len(g.Clusters) {
			t.Errorf("b=%d: classes cover %d of %d clusters", b, len(seen), len(g.Clusters))
		}
	}
}

func TestIdentifyUniqueSameClassSameShape(t *testing.T) {
	g, cp := placeBICG(t, 6)
	classes, _ := IdentifyUnique(g, cp)
	d := g.DFG
	for _, cl := range classes {
		rep := g.Clusters[cl.Rep]
		for _, m := range cl.Members {
			mc := g.Clusters[m]
			if len(mc.Nodes) != len(rep.Nodes) {
				t.Fatalf("class members with different node counts: %v vs %v", rep.Iter, mc.Iter)
			}
			for i := range rep.Nodes {
				if d.Nodes[rep.Nodes[i]].BodyOp != d.Nodes[mc.Nodes[i]].BodyOp {
					t.Fatalf("class members with different body ops at %v vs %v", rep.Iter, mc.Iter)
				}
			}
		}
	}
}

func TestUniqueCountSaturatesWithBlock(t *testing.T) {
	g6, cp6 := placeBICG(t, 6)
	c6, _ := IdentifyUnique(g6, cp6)
	g8, cp8 := placeBICG(t, 8)
	c8, _ := IdentifyUnique(g8, cp8)
	if len(c6) != len(c8) {
		t.Errorf("unique count not saturated: %d at b=6, %d at b=8 (§II's scalability argument)", len(c6), len(c8))
	}
}

func TestNodeTableResolvesEveryNode(t *testing.T) {
	g, _ := placeBICG(t, 4)
	d := g.DFG
	origin := ir.IterVec{0, 0}
	for _, n := range d.Nodes {
		// Seen from the origin cluster and from its own.
		for _, from := range []ir.IterVec{origin, n.Iter} {
			ids, err := resolve(d, nil, []nodeRef{refOf(d, n, from)}, from)
			if err != nil || int(ids[0]) != n.ID {
				t.Fatalf("resolve(%v from %v) = %v, %v; want %d", n, from, ids, err, n.ID)
			}
		}
	}
	// The same offset from the far corner leaves the block.
	last := d.Nodes[len(d.Nodes)-1]
	if _, err := resolve(d, nil, []nodeRef{refOf(d, last, origin)}, last.Iter); !errors.Is(err, diag.ErrReplicaConflict) {
		t.Errorf("out-of-block ref: err = %v, want ErrReplicaConflict", err)
	}
}

// identifyUniqueFullHash is IdentifyUnique without guard shapes: every
// cluster is hashed and grouped by its signature. It is the definition
// the shape key is held to.
func identifyUniqueFullHash(g *ir.ISDG, cp *ClusterPlace) (classes []*UniqueClass, byCluster []int) {
	bySig := map[sigHash]*UniqueClass{}
	byCluster = make([]int, len(g.Clusters))
	var sc sigScratch
	for _, c := range g.Clusters {
		sig := clusterSignature(g, cp, c.ID, &sc)
		cl, ok := bySig[sig]
		if !ok {
			cl = &UniqueClass{Rep: c.ID}
			bySig[sig] = cl
			classes = append(classes, cl)
		}
		cl.Members = append(cl.Members, c.ID)
	}
	sort.SliceStable(classes, func(i, j int) bool { return classes[i].Rep < classes[j].Rep })
	for idx, cl := range classes {
		for _, m := range cl.Members {
			byCluster[m] = idx
		}
	}
	return classes, byCluster
}

// stripeKernel accumulates along j and stores row 1 twice: its rows 1
// and 2 differ only in a store rule that fires, a shape no neighbor's
// shape implies (every catalog store fires on a block face, which the
// shape key already sees as a neighbor outside the block).
func stripeKernel() *kernel.Kernel {
	ij := kernel.AM(2, []int{1, 0, 0}, []int{0, 1, 0})
	out := func(b []int) []int { return []int{b[0], b[1]} }
	return &kernel.Kernel{
		Name: "STRIPE", Desc: "a store guarded inside the block", Suite: "custom",
		Dim: 2, MinBlock: 3,
		Tensors: []kernel.TensorSpec{{Name: "A", Dims: out}, {Name: "O", Out: true, Dims: out}, {Name: "S", Out: true, Dims: out}},
		Body: []kernel.BodyOp{{Name: "acc", Kind: ir.OpAdd,
			A: kernel.Fixed(kernel.Mem("A", ij)),
			B: kernel.In(
				kernel.Case{When: kernel.First(1), Src: kernel.Const(0)},
				kernel.Case{When: kernel.Always(), Src: kernel.Dep(0, 0, 1)}),
			Stores: []kernel.StoreRule{
				{When: kernel.Always(), Tensor: "O", Map: ij},
				{When: kernel.AtIndex(0, 1), Tensor: "S", Map: ij}}}},
	}
}

// TestIdentifyUniqueMatchesFullHash holds the shape-keyed IdentifyUnique
// to the full hash — the same classes, representatives, member order and
// byCluster — on every attempt that reaches the unique stage for the
// evaluation and extension kernels and STRIPE on 4x4, 8x8 mesh and torus
// and 16x16 fabrics, on BICG's skewed scheme at four blocks, and on HOP2
// forwarded at three blocks. No catalog kernel forwards (FW's distances
// are unit vectors); a forwarded DFG records no shapes, so both sides
// hash every cluster.
func TestIdentifyUniqueMatchesFullHash(t *testing.T) {
	shaped, forwarded := 0, 0
	check := func(name string, g *ir.ISDG, cp *ClusterPlace) {
		t.Helper()
		got, gotBy := IdentifyUnique(g, cp)
		want, wantBy := identifyUniqueFullHash(g, cp)
		if !reflect.DeepEqual(got, want) || !slices.Equal(gotBy, wantBy) {
			t.Errorf("%s: %d shape-keyed classes differ from the %d of the full hash", name, len(got), len(want))
		}
		if g.ShapeKey == nil {
			forwarded++
		} else {
			shaped++
		}
	}
	torus := arch.DefaultFabric(8, 8)
	torus.Topology = arch.TopoTorus
	unique := slices.IndexFunc(attemptStages, func(st Stage) bool { return st.Name == StageUnique })
	for _, fab := range []arch.Fabric{arch.DefaultFabric(4, 4), arch.DefaultFabric(8, 8), torus, arch.DefaultFabric(16, 16)} {
		for _, k := range append(kernel.Evaluation(), append(kernel.Extensions(), stripeKernel())...) {
			front := newContext(context.Background(), k, fab, Options{Workers: 1, Memo: NewMemo()}.withDefaults())
			if frontStages.Run(front) != nil {
				continue
			}
			for i, a := range front.Attempts {
				c := front.forAttempt(a, i+1, &attemptCtx{Context: context.Background(), idx: i, gen: 1}, nil)
				if attemptStages[:unique+1].Run(c) == nil {
					check(k.Name+"/"+fab.String(), c.ISDG, c.CP)
				}
			}
		}
	}
	for _, b := range []int{3, 4, 6, 8} {
		g, cp := placeBICG(t, b)
		check("BICG skewed", g, cp)
	}
	for _, block := range [][]int{{4, 6}, {4, 8}, {8, 8}} {
		d, g, err := multiHopKernel().BuildISDG(block)
		if err != nil {
			t.Fatal(err)
		}
		m := systolic.Scheme{SpaceDims: []int{0, 1}, Skew: []int{0, 1}}.Realize(block)
		fd, fg, err := ApplyForwarding(d, g, m)
		if err != nil || fd == d || fg.ShapeKey != nil {
			t.Fatalf("HOP2 %v: err %v, rebuilt %v, shape keys %v (a forwarded DFG records no shapes)", block, err, fd != d, fg.ShapeKey)
		}
		check("HOP2 forwarded", fg, PlaceClusters(fg, m))
	}
	t.Logf("%d shape-keyed and %d forwarded partitions", shaped, forwarded)
	if shaped < 1000 || forwarded < 3 {
		t.Errorf("%d shape-keyed and %d forwarded partitions: the inputs no longer exercise both paths", shaped, forwarded)
	}
}
