package ir

import (
	"fmt"
	"slices"
	"sort"
)

// Cluster is a vertex of the ISDG: the set of DFG nodes belonging to one
// iteration of the block's iteration space.
type Cluster struct {
	ID    int
	Iter  IterVec
	Nodes []int // DFG node IDs, in creation order
}

// ISDG is the Iteration Space Dependency Graph D' = (C, E) of §IV: the
// DFG clustered by iteration vector. Only the clusters are stored. The
// dependence edges E are the DFG edges between clusters, and what the
// mapper needs of them is their distinct distance vectors.
//
// The iteration space is DFG.Block, a box; cluster c is its point of
// PointIndex c, so every lookup is an index: no hashing, no key strings.
type ISDG struct {
	DFG      *DFG
	Clusters []*Cluster

	// DistanceVectors are the distinct inter-iteration dependence
	// distances To.Iter - From.Iter, sorted by Key. They drive the
	// systolic space-time mapping search.
	DistanceVectors []IterVec

	// ShapeKey[c] < NumShapeKeys numbers cluster c's DFG.Shapes entry and
	// the entries at Iter+v for every distance vector v (outside the
	// block has a value of its own); clusters of one key have one
	// unique-iteration signature. Nil when the DFG records no shapes.
	ShapeKey     []int32
	NumShapeKeys int
}

// BuildISDG clusters d from what its constructor recorded: the point
// AddNode found for each node and the distances stated with AddDistance.
// It walks neither Nodes nor Edges and writes nothing to d, so a
// constructor states the distance of every edge it wires between points,
// and an Iter edited after AddNode is not seen. Every node must lie in
// Block.
func BuildISDG(d *DFG) (*ISDG, error) {
	if len(d.Block) == 0 {
		return nil, fmt.Errorf("ir: DFG of %d nodes states no block", len(d.Nodes))
	}
	npts, dim := BoxSize(d.Block), len(d.Block)
	// Counting sort by point: end[p] counts, starts, then ends cluster p.
	end := make([]int32, npts)
	for id, p := range d.point {
		if p < 0 {
			return nil, fmt.Errorf("ir: node %v lies outside block %v", d.Nodes[id], d.Block)
		}
		end[p]++
	}
	sum := int32(0)
	for p, c := range end {
		end[p] = sum
		sum += c
	}
	nodes := make([]int, len(d.point))
	for id, p := range d.point {
		nodes[end[p]] = id
		end[p]++
	}
	g := &ISDG{DFG: d, Clusters: make([]*Cluster, npts), DistanceVectors: slices.Clone(d.dists)}
	sort.Slice(g.DistanceVectors, func(i, j int) bool { return g.DistanceVectors[i].Key() < g.DistanceVectors[j].Key() })
	clusters, iters := make([]Cluster, npts), make([]int, 0, npts*dim)
	p, lo := 0, int32(0)
	ForEachPoint(d.Block, func(v IterVec) {
		iters = append(iters, v...)
		clusters[p] = Cluster{ID: p, Iter: iters[p*dim:][:dim:dim], Nodes: nodes[lo:end[p]:end[p]]}
		g.Clusters[p], lo = &clusters[p], end[p]
		p++
	})
	if d.Shapes != nil {
		g.numberShapeKeys()
	}
	return g, nil
}

// numberShapeKeys fills ShapeKey: a cluster's key is its shape, then the
// digit shape+1 at Iter+v for each distance v (0 outside the block),
// numbered in order of first appearance one digit at a time, through a
// (prefix number, digit) table, so no key is rendered or hashed.
func (g *ISDG) numberShapeKeys() {
	block, shapes := g.DFG.Block, g.DFG.Shapes
	key, n := slices.Clone(shapes), slices.Max(shapes)+1
	radix := n + 1
	for _, v := range g.DistanceVectors {
		next := make([]int32, n*radix) // 1 + number of prefix*radix+digit; 0 unseen
		n = 0
		off := PointIndex(v, block) // PointIndex is linear: an offset's index is the index offset
		for p, c := range g.Clusters {
			digit := int32(0) // outside the block
			if c.Iter.InBoxAt(v, block) {
				digit = shapes[p+off] + 1
			}
			slot := &next[key[p]*radix+digit]
			if *slot == 0 {
				n++
				*slot = n
			}
			key[p] = *slot - 1
		}
	}
	g.ShapeKey, g.NumShapeKeys = key, int(n)
}

// ClusterOf returns the cluster ID owning DFG node id.
func (g *ISDG) ClusterOf(id int) int { return int(g.DFG.point[id]) }

// ClusterAt returns the cluster for an iteration vector, or nil outside
// the block.
func (g *ISDG) ClusterAt(iter IterVec) *Cluster {
	if !iter.InBox(g.DFG.Block) {
		return nil
	}
	return g.Clusters[PointIndex(iter, g.DFG.Block)]
}
