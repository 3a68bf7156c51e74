package himap

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/systolic"
)

// ClusterPlace holds the space-time positions CP of every iteration
// cluster on the VSA (Algorithm 1 line 11).
type ClusterPlace struct {
	Mapping *systolic.Mapping
	T, X, Y []int // indexed by cluster ID
}

// PlaceClusters applies the systolic mapping φ' to every ISDG cluster.
func PlaceClusters(g *ir.ISDG, m *systolic.Mapping) *ClusterPlace {
	cp := &ClusterPlace{
		Mapping: m,
		T:       make([]int, len(g.Clusters)),
		X:       make([]int, len(g.Clusters)),
		Y:       make([]int, len(g.Clusters)),
	}
	for _, c := range g.Clusters {
		t, x, y := m.Place(c.Iter)
		cp.T[c.ID], cp.X[c.ID], cp.Y[c.ID] = t, x, y
	}
	return cp
}

// UniqueClass groups iteration clusters that are identical in computation
// and routing: same body operations, same constants/tensors, and the same
// relative space-time placements of every dependency source and sink (§V,
// "Two IDFGs are the same if the relative placements of all input and
// output nodes of the IDFGs are the same").
type UniqueClass struct {
	Sig     string // hex of the 128-bit content hash (diagnostics only)
	Rep     int    // representative cluster ID (lowest)
	Members []int  // all cluster IDs, ascending
}

// IdentifyUnique computes the unique iteration classes of the placed ISDG
// (Algorithm 1 lines 18-20). The returned classes are ordered by
// representative cluster ID; byCluster maps every cluster to its class
// index.
//
// Cluster identity is decided by a 128-bit content hash over the same
// canonical facts the historical string signature rendered (node
// structure, constants, tensors, and the relative space-time and
// iteration offsets of cross-cluster edges) — two clusters land in one
// class iff their sorted part-hash multisets are equal, which matches
// string-signature grouping up to a ~2^-128 hash collision. The hash is
// computed into reused flat scratch, so the stage does no per-cluster
// string formatting.
func IdentifyUnique(g *ir.ISDG, cp *ClusterPlace) (classes []*UniqueClass, byCluster []int) {
	bySig := map[sigHash]*UniqueClass{}
	byCluster = make([]int, len(g.Clusters))
	var sc sigScratch
	for _, c := range g.Clusters {
		sig := clusterSignature(g, cp, c.ID, &sc)
		cl, ok := bySig[sig]
		if !ok {
			cl = &UniqueClass{Sig: fmt.Sprintf("%016x%016x", sig[0], sig[1]), Rep: c.ID}
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

// sigHash is the 128-bit cluster identity: two independently mixed
// 64-bit FNV-style lanes over the cluster's canonical fact stream.
type sigHash [2]uint64

const (
	fnvOffset  = 14695981039346656037
	fnvPrime   = 1099511628211
	mixOffset  = 0x2b992ddfa23249d6 // second-lane basis, decorrelated
	mixPremult = 0x9e3779b97f4a7c15 // odd multiplier applied to lane-2 input
)

// word folds one 64-bit value into both lanes.
func (h *sigHash) word(x uint64) {
	h[0] = (h[0] ^ x) * fnvPrime
	h[1] = (h[1] ^ (x * mixPremult)) * fnvPrime
}

// sint folds a signed field.
func (h *sigHash) sint(x int) { h.word(uint64(int64(x))) }

// str folds a string's length and bytes.
func (h *sigHash) str(s string) {
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.word(uint64(s[i]))
	}
}

// diff folds the iteration offset v − from (length-prefixed, like str).
func (h *sigHash) diff(v, from ir.IterVec) {
	h.word(uint64(len(v)))
	for i, x := range v {
		h.sint(x - from[i])
	}
}

// sigScratch is the reusable working set of clusterSignature: the
// per-part hashes of the cluster being signed.
type sigScratch struct {
	parts []sigHash
}

// Part type tags, folded first into every part hash so structurally
// different facts with the same integer fields cannot merge.
const (
	partNode = iota + 1
	partInternalEdge
	partInput
	partOutput
)

// clusterSignature computes the canonical identity hash of a cluster:
// node structure, constants, memory tensors, and the space-time *and*
// iteration-space offsets of all cross-cluster edges. The iteration-space
// offsets are included so that replication can locate each member's
// corresponding producer/consumer nodes; they refine the paper's purely
// space-time criterion only in the degenerate case where two distinct
// iteration distances map to the same space-time offset.
//
// Each fact becomes one part hash; the sorted part hashes are chained
// into the final 128-bit signature, so part order (like the historical
// sorted-string join) does not matter.
func clusterSignature(g *ir.ISDG, cp *ClusterPlace, ci int, sc *sigScratch) sigHash {
	c := g.Clusters[ci]
	d := g.DFG
	sc.parts = sc.parts[:0]
	part := func() *sigHash {
		sc.parts = append(sc.parts, sigHash{fnvOffset, mixOffset})
		return &sc.parts[len(sc.parts)-1]
	}
	for _, id := range c.Nodes {
		n := d.Nodes[id]
		p := part()
		p.word(partNode)
		p.sint(n.BodyOp)
		p.sint(int(n.Kind))
		if n.Kind.IsMemory() {
			p.str(n.Tensor)
		}
		if n.HasConst {
			p.word(1)
			p.word(uint64(n.Const))
		}
		for _, ei := range d.InEdges(id) {
			e := d.Edges[ei]
			from := d.Nodes[e.From]
			fc := g.ClusterOf(e.From)
			if fc == ci {
				p := part()
				p.word(partInternalEdge)
				p.sint(from.BodyOp)
				p.sint(n.BodyOp)
				p.sint(e.ToPort)
				continue
			}
			p := part()
			p.word(partInput)
			p.sint(n.BodyOp)
			p.sint(e.ToPort)
			p.sint(from.BodyOp)
			p.sint(cp.T[fc] - cp.T[ci])
			p.sint(cp.X[fc] - cp.X[ci])
			p.sint(cp.Y[fc] - cp.Y[ci])
			p.diff(from.Iter, c.Iter)
		}
		for _, ei := range d.OutEdges(id) {
			e := d.Edges[ei]
			to := d.Nodes[e.To]
			tc := g.ClusterOf(e.To)
			if tc == ci {
				continue
			}
			p := part()
			p.word(partOutput)
			p.sint(n.BodyOp)
			p.sint(to.BodyOp)
			p.sint(e.ToPort)
			p.sint(cp.T[tc] - cp.T[ci])
			p.sint(cp.X[tc] - cp.X[ci])
			p.sint(cp.Y[tc] - cp.Y[ci])
			p.diff(to.Iter, c.Iter)
		}
	}
	slices.SortFunc(sc.parts, func(a, b sigHash) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	sig := sigHash{fnvOffset, mixOffset}
	for _, p := range sc.parts {
		sig.word(p[0])
		sig.word(p[1])
	}
	return sig
}

// nodeTable locates nodes by (body op, iteration point) in a dense
// table, supporting the translation of a class representative's nodes
// onto class members: the member's counterpart of a node sits in the same
// row at the member's point index, so replication resolves it with one
// add and one load.
type nodeTable struct {
	block []int
	npts  int
	lo    int     // smallest body op (forwarding roles are negative)
	row   []int32 // body op - lo → 1 + row of at; 0 for an op without nodes
	at    []int32 // row*npts + point index → 1 + node ID; 0 where absent
}

func buildNodeTable(g *ir.ISDG) *nodeTable {
	d := g.DFG
	lo, hi := d.Nodes[0].BodyOp, d.Nodes[0].BodyOp
	for _, n := range d.Nodes {
		lo, hi = min(lo, n.BodyOp), max(hi, n.BodyOp)
	}
	nt := &nodeTable{block: d.Block, npts: ir.BoxSize(d.Block), lo: lo, row: make([]int32, hi-lo+1)}
	rows := int32(0)
	for _, n := range d.Nodes {
		if nt.row[n.BodyOp-lo] == 0 {
			rows++
			nt.row[n.BodyOp-lo] = rows
		}
	}
	nt.at = make([]int32, int(rows)*nt.npts)
	for _, n := range d.Nodes {
		nt.at[nt.rowBase(n.BodyOp)+ir.PointIndex(n.Iter, nt.block)] = int32(n.ID) + 1
	}
	return nt
}

// rowBase returns the offset in at of a body op's row.
func (nt *nodeTable) rowBase(bodyOp int) int { return int(nt.row[bodyOp-nt.lo]-1) * nt.npts }

// nodeRef names a node relative to a cluster: its body op's row and its
// iteration offset from the cluster.
type nodeRef struct {
	base  int        // row offset in at, plus the point-index offset of dIter
	body  int        // body op, for error text
	dIter ir.IterVec // offset from the cluster's iteration; nil inside it
}

// ref describes node n relative to the cluster at iteration from.
func (nt *nodeTable) ref(n *ir.Node, from ir.IterVec) nodeRef {
	rf := nodeRef{base: nt.rowBase(n.BodyOp), body: n.BodyOp}
	if !n.Iter.Equal(from) {
		rf.dIter = n.Iter.Sub(from)
		// PointIndex is linear, so an offset's index is the index offset.
		rf.base += ir.PointIndex(rf.dIter, nt.block)
	}
	return rf
}

// resolve appends to dst the node each ref names relative to the cluster
// at iteration iter; a ref that leaves the block or names no node there
// is an ErrReplicaConflict.
func (nt *nodeTable) resolve(dst []int32, refs []nodeRef, iter ir.IterVec) ([]int32, error) {
	pi := ir.PointIndex(iter, nt.block)
	for _, rf := range refs {
		id := int32(0)
		if rf.inBox(iter, nt.block) {
			id = nt.at[rf.base+pi]
		}
		if id == 0 {
			return dst, fmt.Errorf("himap: replication cannot find body op %d at offset %v of member %v: %w",
				rf.body, rf.dIter, iter, diag.ErrReplicaConflict)
		}
		dst = append(dst, id-1)
	}
	return dst, nil
}

func (rf *nodeRef) inBox(iter ir.IterVec, block []int) bool {
	for k, dv := range rf.dIter {
		if v := iter[k] + dv; v < 0 || v >= block[k] {
			return false
		}
	}
	return true
}
