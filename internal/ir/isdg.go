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

// ClusterEdge is a dependence between two iteration clusters, annotated
// with its distance vector Dist = To.Iter - From.Iter.
type ClusterEdge struct {
	From, To int
	Dist     IterVec
}

// ISDG is the Iteration Space Dependency Graph D' = (C, E) of §IV: the
// DFG clustered by iteration vector. Two clusters are connected iff a
// node in one feeds a node in the other.
//
// The iteration space is a box, so every lookup is a dense table over
// PointIndex: no hashing, no per-node key strings.
type ISDG struct {
	DFG      *DFG
	Clusters []*Cluster
	Edges    []ClusterEdge

	// box is the iteration space clusters are indexed over — DFG.Block,
	// or, for a hand-built DFG that leaves Block empty, the bounding box
	// of the nodes' iterations with its low corner in lo (nil: origin).
	box     []int
	lo      IterVec
	at      []int32 // PointIndex in box -> 1 + cluster ID; 0 where none
	cluster []int   // DFG node ID -> cluster ID

	// adj[outOff[ci]:outOff[ci+1]] are the indices into Edges of the
	// edges leaving cluster ci, in Edges order; inOff likewise.
	outOff, inOff []int32
	adj           []int
}

// maxBoxSlack bounds the bounding box BuildISDG derives for a DFG with
// no Block: the box may hold this many points per node, plus a constant,
// before it counts as a stray coordinate instead of an iteration space.
const maxBoxSlack = 64

// iterBox returns the box the DFG's iterations are indexed over and its
// low corner (nil for the origin), checking every node against it.
func iterBox(d *DFG) (box []int, lo IterVec, err error) {
	for _, n := range d.Nodes {
		if n.Iter == nil {
			return nil, nil, fmt.Errorf("ir: node %v has no iteration vector", n)
		}
		if len(d.Block) > 0 && !n.Iter.InBox(d.Block) {
			return nil, nil, fmt.Errorf("ir: node %v lies outside block %v", n, d.Block)
		}
	}
	if len(d.Block) > 0 {
		return d.Block, nil, nil
	}
	if len(d.Nodes) == 0 {
		return nil, nil, nil
	}
	lo = d.Nodes[0].Iter.Clone()
	hi := lo.Clone()
	for _, n := range d.Nodes {
		if len(n.Iter) != len(lo) {
			return nil, nil, fmt.Errorf("ir: node %v has %d iteration dims, node %v has %d", n, len(n.Iter), d.Nodes[0], len(lo))
		}
		for i, x := range n.Iter {
			lo[i], hi[i] = min(lo[i], x), max(hi[i], x)
		}
	}
	box = make([]int, len(lo))
	npts, limit := 1, 1024+maxBoxSlack*len(d.Nodes)
	for i := range box {
		box[i] = hi[i] - lo[i] + 1
		if box[i] <= 0 || box[i] > limit {
			npts = limit + 1 // a span past the limit, or past int
		} else {
			npts *= box[i]
		}
		if npts > limit {
			return nil, nil, fmt.Errorf("ir: iterations of %d nodes span %v..%v: too sparse to index without a Block", len(d.Nodes), lo, hi)
		}
	}
	return box, lo, nil
}

// pointOf returns the index of iter in the cluster table, or -1 when it
// lies outside the indexed box.
func (g *ISDG) pointOf(iter IterVec) int {
	if len(iter) != len(g.box) {
		return -1
	}
	idx := 0
	for i, b := range g.box {
		x := iter[i]
		if g.lo != nil {
			x -= g.lo[i]
		}
		if x < 0 || x >= b {
			return -1
		}
		idx = idx*b + x
	}
	return idx
}

// BuildISDG clusters the DFG by iteration vector. Every node must carry
// an Iter inside d.Block; a DFG whose Block is empty is indexed over the
// bounding box of its nodes' iterations instead.
func BuildISDG(d *DFG) (*ISDG, error) {
	box, lo, err := iterBox(d)
	if err != nil {
		return nil, err
	}
	g := &ISDG{DFG: d, box: box, lo: lo, at: make([]int32, BoxSize(box)), cluster: make([]int, len(d.Nodes))}
	// Cluster IDs in order of each iteration's first node; sizes counted
	// so the clusters and their node lists are carved from three slabs.
	var sizes []int32
	for _, n := range d.Nodes {
		pi := g.pointOf(n.Iter)
		if g.at[pi] == 0 {
			sizes = append(sizes, 0)
			g.at[pi] = int32(len(sizes))
		}
		ci := int(g.at[pi]) - 1
		sizes[ci]++
		g.cluster[n.ID] = ci
	}
	dim := len(box)
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

	// Deduplicate cluster edges; record each distinct (from, to) pair
	// once, at its first DFG edge. A cluster has few distinct producers
	// (a body's worth of input ports), so the pairs already recorded
	// into ct are a short chain through prev, scanned linearly.
	cross := 0
	for _, e := range d.Edges {
		if g.cluster[e.From] != g.cluster[e.To] {
			cross++
		}
	}
	g.Edges = make([]ClusterEdge, 0, cross)
	dists := make([]int, 0, cross*dim)
	last := make([]int32, len(sizes)) // 1 + latest edge into the cluster
	prev := make([]int32, 0, cross)   // edge -> 1 + the one before it into the same cluster
	for _, e := range d.Edges {
		cf, ct := g.cluster[e.From], g.cluster[e.To]
		if cf == ct {
			continue
		}
		dup := false
		for i := last[ct]; i != 0 && !dup; i = prev[i-1] {
			dup = g.Edges[i-1].From == cf
		}
		if dup {
			continue
		}
		from, to := g.Clusters[cf].Iter, g.Clusters[ct].Iter
		for i := range to {
			dists = append(dists, to[i]-from[i])
		}
		g.Edges = append(g.Edges, ClusterEdge{From: cf, To: ct, Dist: dists[len(dists)-dim : len(dists) : len(dists)]})
		prev = append(prev, last[ct])
		last[ct] = int32(len(g.Edges))
	}

	g.outOff, g.inOff, g.adj = csr(len(sizes), len(g.Edges), func(ei int) (int, int) {
		return g.Edges[ei].From, g.Edges[ei].To
	})
	return g, nil
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

// OutEdges returns indices into g.Edges of edges leaving cluster ci.
func (g *ISDG) OutEdges(ci int) []int { return g.adj[g.outOff[ci]:g.outOff[ci+1]] }

// InEdges returns indices into g.Edges of edges entering cluster ci.
func (g *ISDG) InEdges(ci int) []int { return g.adj[g.inOff[ci]:g.inOff[ci+1]] }

// DistanceVectors returns the distinct inter-iteration dependence distance
// vectors of the ISDG in a deterministic order. These drive the systolic
// space-time mapping search.
func (g *ISDG) DistanceVectors() []IterVec {
	// A kernel has a handful of distinct distances, so membership is a
	// scan of those found so far, not a key string per cluster edge.
	var out []IterVec
	for _, e := range g.Edges {
		if !slices.ContainsFunc(out, e.Dist.Equal) {
			out = append(out, e.Dist)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Validate checks that all inter-cluster dependence distances are
// lexicographically positive (a well-formed loop nest) and that cluster
// membership covers every DFG node exactly once.
func (g *ISDG) Validate() error {
	covered := 0
	for _, c := range g.Clusters {
		covered += len(c.Nodes)
		for _, id := range c.Nodes {
			if g.cluster[id] != c.ID {
				return fmt.Errorf("ir: node %d claimed by cluster %d but mapped to %d", id, c.ID, g.cluster[id])
			}
		}
	}
	if covered != len(g.DFG.Nodes) {
		return fmt.Errorf("ir: clusters cover %d of %d nodes", covered, len(g.DFG.Nodes))
	}
	for _, e := range g.Edges {
		if e.Dist.IsZero() {
			return fmt.Errorf("ir: zero-distance inter-cluster edge %d->%d", e.From, e.To)
		}
		if !e.Dist.LexNonNegative() {
			return fmt.Errorf("ir: lexicographically negative dependence %v on edge %d->%d", e.Dist, e.From, e.To)
		}
	}
	return nil
}
