package himap

import (
	"errors"
	"testing"

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
	nt := buildNodeTable(g)
	origin := ir.IterVec{0, 0}
	for _, n := range g.DFG.Nodes {
		// Seen from the origin cluster and from its own.
		for _, from := range []ir.IterVec{origin, n.Iter} {
			ids, err := nt.resolve(nil, []nodeRef{nt.ref(n, from)}, from)
			if err != nil || int(ids[0]) != n.ID {
				t.Fatalf("resolve(%v from %v) = %v, %v; want %d", n, from, ids, err, n.ID)
			}
		}
	}
	// The same offset from the far corner leaves the block.
	last := g.DFG.Nodes[len(g.DFG.Nodes)-1]
	if _, err := nt.resolve(nil, []nodeRef{nt.ref(last, origin)}, last.Iter); !errors.Is(err, diag.ErrReplicaConflict) {
		t.Errorf("out-of-block ref: err = %v, want ErrReplicaConflict", err)
	}
}
