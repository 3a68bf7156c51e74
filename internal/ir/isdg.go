package ir

import (
	"encoding/binary"
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
// The iteration space is DFG.Block, a box, so every lookup is a dense
// table over PointIndex: no hashing, no per-node key strings.
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

	at      []int32 // PointIndex in DFG.Block -> 1 + cluster ID; 0 where none
	cluster []int   // DFG node ID -> cluster ID
}

// pointOf returns the index of iter in the cluster table, or -1 when it
// lies outside the block.
func (g *ISDG) pointOf(iter IterVec) int {
	if !iter.InBox(g.DFG.Block) {
		return -1
	}
	return PointIndex(iter, g.DFG.Block)
}

// BuildISDG clusters the DFG by iteration vector. The DFG must state its
// Block, and every node must carry an Iter inside it.
func BuildISDG(d *DFG) (*ISDG, error) {
	if len(d.Block) == 0 {
		return nil, fmt.Errorf("ir: DFG of %d nodes states no block", len(d.Nodes))
	}
	g := &ISDG{DFG: d, at: make([]int32, BoxSize(d.Block)), cluster: make([]int, len(d.Nodes))}
	// Cluster IDs in order of each iteration's first node; sizes counted
	// so the clusters and their node lists are carved from three slabs.
	var sizes []int32
	for _, n := range d.Nodes {
		if n.Iter == nil {
			return nil, fmt.Errorf("ir: node %v has no iteration vector", n)
		}
		pi := g.pointOf(n.Iter)
		if pi < 0 {
			return nil, fmt.Errorf("ir: node %v lies outside block %v", n, d.Block)
		}
		if g.at[pi] == 0 {
			sizes = append(sizes, 0)
			g.at[pi] = int32(len(sizes))
		}
		ci := int(g.at[pi]) - 1
		sizes[ci]++
		g.cluster[n.ID] = ci
	}
	dim := len(d.Block)
	clusters := make([]Cluster, len(sizes))
	g.Clusters = make([]*Cluster, len(sizes))
	nodes := make([]int, len(d.Nodes))
	iters := make([]int, len(sizes)*dim)
	for ci, sz := range sizes {
		clusters[ci] = Cluster{ID: ci, Iter: iters[ci*dim : (ci+1)*dim : (ci+1)*dim], Nodes: nodes[:0:sz]}
		g.Clusters[ci] = &clusters[ci]
		nodes = nodes[sz:]
	}
	for _, n := range d.Nodes {
		c := g.Clusters[g.cluster[n.ID]]
		if len(c.Nodes) == 0 {
			copy(c.Iter, n.Iter)
		}
		c.Nodes = append(c.Nodes, n.ID)
	}

	// A kernel has a handful of distinct distances, so membership is a
	// scan of those found so far; each edge's distance is computed into
	// one scratch vector and cloned only when it is new.
	dist := make(IterVec, dim)
	for _, e := range d.Edges {
		cf, ct := g.cluster[e.From], g.cluster[e.To]
		if cf == ct {
			continue
		}
		from, to := g.Clusters[cf].Iter, g.Clusters[ct].Iter
		for i := range dist {
			dist[i] = to[i] - from[i]
		}
		if !slices.ContainsFunc(g.DistanceVectors, dist.Equal) {
			g.DistanceVectors = append(g.DistanceVectors, dist.Clone())
		}
	}
	sort.Slice(g.DistanceVectors, func(i, j int) bool { return g.DistanceVectors[i].Key() < g.DistanceVectors[j].Key() })
	if d.Shapes != nil {
		g.numberShapeKeys()
	}
	return g, nil
}

// numberShapeKeys fills ShapeKey, interning each key tuple once.
func (g *ISDG) numberShapeKeys() {
	block, shapes := g.DFG.Block, g.DFG.Shapes
	ids := map[string]int32{}
	var key []byte
	g.ShapeKey = make([]int32, len(g.Clusters))
	for _, c := range g.Clusters {
		pi := PointIndex(c.Iter, block)
		key = binary.AppendUvarint(key[:0], uint64(shapes[pi])+1)
		for _, v := range g.DistanceVectors {
			at := uint64(0) // outside the block
			if c.Iter.InBoxAt(v, block) {
				// PointIndex is linear, so an offset's index is the index offset.
				at = uint64(shapes[pi+PointIndex(v, block)]) + 1
			}
			key = binary.AppendUvarint(key, at)
		}
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(ids))
			ids[string(key)] = id
		}
		g.ShapeKey[c.ID] = id
	}
	g.NumShapeKeys = len(ids)
}

// ClusterOf returns the cluster ID owning DFG node id.
func (g *ISDG) ClusterOf(id int) int { return g.cluster[id] }

// ClusterAt returns the cluster for an iteration vector, or nil.
func (g *ISDG) ClusterAt(iter IterVec) *Cluster {
	pi := g.pointOf(iter)
	if pi < 0 || g.at[pi] == 0 {
		return nil
	}
	return g.Clusters[g.at[pi]-1]
}
