package ir

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sort"
)

// This file holds the ISDG and the node table as a walk over a finished
// DFG derives them: every node for its cluster and its table entry, every
// edge for its distance. The unroll records the same facts as it writes
// the DFG, and MatchesWalk holds what BuildISDG builds from those records
// to this definition.

// WalkISDG is the clustering of a DFG by iteration vector, in the order
// of each iteration's first node.
type WalkISDG struct {
	Clusters        []*Cluster
	DistanceVectors []IterVec
	ShapeKey        []int32
	NumShapeKeys    int
	ClusterOf       []int // DFG node ID -> cluster ID
}

// ClusterByWalk clusters d by walking its nodes and edges.
func ClusterByWalk(d *DFG) (*WalkISDG, error) {
	if len(d.Block) == 0 {
		return nil, fmt.Errorf("ir: DFG of %d nodes states no block", len(d.Nodes))
	}
	at := make([]int32, BoxSize(d.Block)) // PointIndex -> 1 + cluster ID
	g := &WalkISDG{ClusterOf: make([]int, len(d.Nodes))}
	var sizes []int32
	for _, n := range d.Nodes {
		if n.Iter == nil {
			return nil, fmt.Errorf("ir: node %v has no iteration vector", n)
		}
		if !n.Iter.InBox(d.Block) {
			return nil, fmt.Errorf("ir: node %v lies outside block %v", n, d.Block)
		}
		pi := PointIndex(n.Iter, d.Block)
		if at[pi] == 0 {
			sizes = append(sizes, 0)
			at[pi] = int32(len(sizes))
		}
		ci := int(at[pi]) - 1
		sizes[ci]++
		g.ClusterOf[n.ID] = ci
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
		c := g.Clusters[g.ClusterOf[n.ID]]
		if len(c.Nodes) == 0 {
			copy(c.Iter, n.Iter)
		}
		c.Nodes = append(c.Nodes, n.ID)
	}
	dist := make(IterVec, dim)
	for _, e := range d.Edges {
		cf, ct := g.ClusterOf[e.From], g.ClusterOf[e.To]
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
		g.numberShapeKeys(d)
	}
	return g, nil
}

// numberShapeKeys renders each cluster's key tuple and interns it in a
// string map.
func (g *WalkISDG) numberShapeKeys(d *DFG) {
	block, shapes := d.Block, d.Shapes
	ids := map[string]int32{}
	var key []byte
	g.ShapeKey = make([]int32, len(g.Clusters))
	for _, c := range g.Clusters {
		pi := PointIndex(c.Iter, block)
		key = binary.AppendUvarint(key[:0], uint64(shapes[pi])+1)
		for _, v := range g.DistanceVectors {
			at := uint64(0) // outside the block
			if c.Iter.InBoxAt(v, block) {
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

// walkTable locates nodes by (body op, point index) in a dense table
// filled by a walk over the nodes.
type walkTable struct {
	npts int
	lo   int     // smallest body op
	row  []int32 // body op - lo -> 1 + row of at; 0 for an op without nodes
	at   []int32 // row*npts + point index -> 1 + node ID; 0 where absent
}

func nodeTableByWalk(d *DFG) *walkTable {
	lo, hi := d.Nodes[0].BodyOp, d.Nodes[0].BodyOp
	for _, n := range d.Nodes {
		lo, hi = min(lo, n.BodyOp), max(hi, n.BodyOp)
	}
	nt := &walkTable{npts: BoxSize(d.Block), lo: lo, row: make([]int32, hi-lo+1)}
	rows := int32(0)
	for _, n := range d.Nodes {
		if nt.row[n.BodyOp-lo] == 0 {
			rows++
			nt.row[n.BodyOp-lo] = rows
		}
	}
	nt.at = make([]int32, int(rows)*nt.npts)
	for _, n := range d.Nodes {
		nt.at[int(nt.row[n.BodyOp-lo]-1)*nt.npts+PointIndex(n.Iter, d.Block)] = int32(n.ID) + 1
	}
	return nt
}

// MatchesWalk returns the first difference between g, with its DFG's
// node table, and what the walks derive from g.DFG; nil when they agree.
func MatchesWalk(g *ISDG) error {
	d := g.DFG
	w, err := ClusterByWalk(d)
	if err != nil {
		return err
	}
	switch {
	case !reflect.DeepEqual(g.Clusters, w.Clusters):
		return fmt.Errorf("%d clusters differ from the walk's %d", len(g.Clusters), len(w.Clusters))
	case !reflect.DeepEqual(g.DistanceVectors, w.DistanceVectors):
		return fmt.Errorf("distances %v, walk %v", g.DistanceVectors, w.DistanceVectors)
	case !reflect.DeepEqual(g.ShapeKey, w.ShapeKey) || g.NumShapeKeys != w.NumShapeKeys:
		return fmt.Errorf("%d shape keys differ from the walk's %d", g.NumShapeKeys, w.NumShapeKeys)
	}
	for id := range d.Nodes {
		if g.ClusterOf(id) != w.ClusterOf[id] {
			return fmt.Errorf("node %v in cluster %d, walk %d", d.Nodes[id], g.ClusterOf(id), w.ClusterOf[id])
		}
	}
	nt := nodeTableByWalk(d)
	if len(d.at) != len(nt.at) {
		return fmt.Errorf("node table of %d rows, walk %d", len(d.at)/nt.npts, len(nt.at)/nt.npts)
	}
	for _, op := range d.rowOps {
		if op < nt.lo || op-nt.lo >= len(nt.row) || nt.row[op-nt.lo] == 0 {
			return fmt.Errorf("node table has a row for body op %d, the walk has none", op)
		}
		r := int(nt.row[op-nt.lo]) - 1
		if !slices.Equal(d.at[d.NodeRow(op):][:nt.npts], nt.at[r*nt.npts:][:nt.npts]) {
			return fmt.Errorf("node table row of body op %d differs from the walk's", op)
		}
	}
	return nil
}

// NodeTableSlack returns how many node-table entries d reserved beyond
// those its rows use.
func NodeTableSlack(d *DFG) int { return cap(d.at) - len(d.at) }
