package ir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Node is a vertex of the DFG: one operation instance of the fully
// unrolled loop block.
type Node struct {
	ID     int
	Kind   OpKind
	Name   string  // body-op name, e.g. "mul1"; empty for synthesized nodes
	BodyOp int     // index of the originating kernel body op; -1 if synthesized
	Iter   IterVec // block-local iteration vector of the owning cluster
	Tensor string  // OpLoad/OpStore: tensor name
	Index  IterVec // OpLoad/OpStore: tensor element index
	Const  int64   // immediate operand value when HasConst is set
	// HasConst marks nodes whose second input port (port 1) is an
	// immediate rather than a routed value.
	HasConst bool
}

// IsBoundaryIO reports whether the node is a memory access synthesized at
// the block boundary (as opposed to a body-op memory access).
func (n *Node) IsBoundaryIO() bool { return n.Kind.IsMemory() && n.BodyOp < 0 }

func (n *Node) String() string {
	return fmt.Sprintf("n%d[%s %s@%s]", n.ID, n.Kind, n.Name, n.Iter)
}

// Edge is a data dependence between two DFG nodes. ToPort identifies the
// consumer input port (0 or 1 for binary compute ops; 0 for route/store).
type Edge struct {
	From   int
	To     int
	ToPort int
}

// DFG is the Data-Flow Graph of one fully unrolled block of the kernel:
// a directed acyclic graph whose vertices are operations and whose edges
// are data dependencies (paper §IV, D = (V_D, E_D)).
//
// Nodes are carved from slabs and adjacency is two flat CSR arrays over
// Edges, so a DFG of n nodes and m edges is a handful of allocations,
// not n + 2m. The adjacency is derived: the first OutEdges/InEdges/
// TopoOrder/Validate after an AddNode or AddEdge rebuilds it in one
// counting pass. kernel.BuildDFG and himap.ApplyForwarding, the two
// product constructors, end with Validate, so a DFG they return is
// indexed before any other goroutine can see it.
type DFG struct {
	Nodes []*Node
	Edges []Edge

	Block []int // block sizes (b1, ..., bl) the DFG was unrolled for

	// Shapes[PointIndex(iter, Block)] numbers iteration iter's guard
	// shape in order of first appearance: the case each input port
	// selected and the store rules that fired, which fix its nodes,
	// constants, tensors and in-edges. Only kernel.BuildDFG records them.
	Shapes []int32

	slab []Node // AddNode's backing store; a full slab is replaced, never grown

	// What the constructor records, so no reader walks Nodes or Edges
	// again: point[id] is node id's PointIndex in Block (-1 outside); the
	// node table at[r*npts+p] is 1 + the ID of body op rowOps[r]'s node at
	// point p (0: none), and rowOf[b] is 1 + body op b's row (0: none) for
	// b >= 0; dists are those AddDistance was given.
	npts   int // BoxSize(Block)
	point  []int32
	rowOps []int
	rowOf  []int32
	at     []int32
	dists  []IterVec

	// adj[outOff[id]:outOff[id+1]] are the indices into Edges of the
	// edges leaving id, in insertion order; inOff likewise. Valid while
	// indexed is set.
	indexed       bool
	outOff, inOff []int32
	adj           []int
}

// NewDFG returns an empty DFG for the given block sizes.
func NewDFG(block []int) *DFG {
	b := make([]int, len(block))
	copy(b, block)
	return &DFG{Block: b, npts: BoxSize(b)}
}

// Grow reserves room for nodes more nodes, edges more edges and rows more
// node-table rows, so a constructor that knows its size pays one
// allocation each.
func (d *DFG) Grow(nodes, edges, rows int) {
	if cap(d.slab)-len(d.slab) < nodes {
		d.slab = make([]Node, 0, nodes)
	}
	d.Nodes = slices.Grow(d.Nodes, nodes)
	d.point = slices.Grow(d.point, nodes)
	d.Edges = slices.Grow(d.Edges, edges)
	if cap(d.at)-len(d.at) < rows*d.npts { // exactly: the table stays with a memoised DFG
		d.at = append(make([]int32, 0, len(d.at)+rows*d.npts), d.at...)
	}
}

// AddNode appends a copy of n, assigning its ID, and returns the copy.
func (d *DFG) AddNode(n *Node) *Node {
	if len(d.slab) == cap(d.slab) {
		// Earlier nodes keep pointing into the old slab. A quarter of
		// the nodes so far keeps the slab count logarithmic without
		// doubling a Grow-sized graph for its last few nodes.
		d.slab = make([]Node, 0, max(16, len(d.Nodes)/4))
	}
	d.slab = append(d.slab, *n)
	p := &d.slab[len(d.slab)-1]
	p.ID = len(d.Nodes)
	d.Nodes = append(d.Nodes, p)
	pi := -1
	if p.Iter.InBox(d.Block) {
		pi = PointIndex(p.Iter, d.Block)
		row := d.NodeRow(p.BodyOp)
		if row < 0 {
			if p.BodyOp >= 0 {
				d.rowOf = append(d.rowOf, make([]int32, max(0, p.BodyOp+1-len(d.rowOf)))...)
				d.rowOf[p.BodyOp] = int32(len(d.rowOps)) + 1
			}
			row = len(d.at)
			d.rowOps = append(d.rowOps, p.BodyOp)
			d.at = append(d.at, make([]int32, d.npts)...)
		}
		d.at[row+pi] = int32(p.ID) + 1
	}
	d.point = append(d.point, int32(pi))
	d.indexed = false
	return p
}

// NodeRow returns the offset of body op bodyOp's row in the node table
// (-1: no node has that body op), and NodeAt(row+pi) the ID of its node
// at point index pi of Block (-1: none).
func (d *DFG) NodeRow(bodyOp int) int {
	r := -1
	if bodyOp < 0 { // synthesized: a handful of ids spread over thousands
		r = slices.Index(d.rowOps, bodyOp)
	} else if bodyOp < len(d.rowOf) {
		r = int(d.rowOf[bodyOp]) - 1
	}
	return max(r*d.npts, -1)
}

// NodeAt: see NodeRow.
func (d *DFG) NodeAt(i int) int { return int(d.at[i]) - 1 }

// AddEdge appends a dependence edge from -> to at the given consumer port.
func (d *DFG) AddEdge(from, to, port int) {
	if from < 0 || from >= len(d.Nodes) || to < 0 || to >= len(d.Nodes) {
		panic(fmt.Sprintf("ir: AddEdge out of range (%d -> %d, %d nodes)", from, to, len(d.Nodes)))
	}
	d.Edges = append(d.Edges, Edge{From: from, To: to, ToPort: port})
	d.indexed = false
}

// AddDistance records v, once, as the To.Iter - From.Iter of an edge the
// constructor wires between points. The DFG keeps v itself, read-only.
func (d *DFG) AddDistance(v IterVec) {
	if !slices.ContainsFunc(d.dists, v.Equal) { // a kernel has a handful
		d.dists = append(d.dists, v)
	}
}

// index rebuilds the CSR adjacency. It counts each node's degrees,
// prefix-sums the counts into offsets, then drops every edge into its
// slot — a stable counting sort, three allocations whatever the size.
// Edges with an endpoint out of range (only a hand-edited Edges slice has
// them; Validate reports them) are left out.
func (d *DFG) index() {
	n := len(d.Nodes)
	inRange := func(e Edge) bool { return e.From >= 0 && e.From < n && e.To >= 0 && e.To < n }
	off := make([]int32, 2*(n+1))
	outOff, inOff := off[:n+1], off[n+1:]
	for _, e := range d.Edges {
		if inRange(e) {
			outOff[e.From]++
			inOff[e.To]++
		}
	}
	// Counts to start offsets; every in-list follows the out-lists.
	sum := int32(0)
	for i, c := range off {
		off[i] = sum
		sum += c
	}
	adj := make([]int, sum)
	for ei, e := range d.Edges {
		if inRange(e) {
			adj[outOff[e.From]] = ei
			outOff[e.From]++
			adj[inOff[e.To]] = ei
			inOff[e.To]++
		}
	}
	// Filling advanced each start to the next node's start: shift back.
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	d.outOff, d.inOff, d.adj = outOff, inOff, adj
	d.indexed = true
}

// OutEdges returns the indices (into d.Edges) of edges leaving node id.
func (d *DFG) OutEdges(id int) []int {
	if !d.indexed {
		d.index()
	}
	return d.adj[d.outOff[id]:d.outOff[id+1]]
}

// InEdges returns the indices (into d.Edges) of edges entering node id.
func (d *DFG) InEdges(id int) []int {
	if !d.indexed {
		d.index()
	}
	return d.adj[d.inOff[id]:d.inOff[id+1]]
}

// NumCompute returns |V_D| counted over compute nodes only, the numerator
// of the utilization metric.
func (d *DFG) NumCompute() int {
	n := 0
	for _, v := range d.Nodes {
		if v.Kind.IsCompute() {
			n++
		}
	}
	return n
}

// TopoOrder returns node IDs in a topological order of the dependence
// edges. It returns an error if the graph has a cycle.
func (d *DFG) TopoOrder() ([]int, error) {
	indeg := make([]int, len(d.Nodes))
	for _, e := range d.Edges {
		indeg[e.To]++
	}
	queue := make([]int, 0, len(d.Nodes))
	for id := range d.Nodes {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	order := make([]int, 0, len(d.Nodes))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, ei := range d.OutEdges(id) {
			t := d.Edges[ei].To
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	if len(order) != len(d.Nodes) {
		return nil, fmt.Errorf("ir: DFG has a dependence cycle (%d of %d nodes ordered)", len(order), len(d.Nodes))
	}
	return order, nil
}

// Validate checks structural invariants: edge endpoints in range, every
// consumer port within the node's arity, each input port driven at most
// once, non-constant compute ports driven exactly once, and acyclicity.
// Acyclicity needs no topological sort when every edge with From >= To
// leaves a node without in-edges (a cycle takes some such edge, and such
// a node is on no cycle); kernel.BuildDFG's graphs pass.
func (d *DFG) Validate() error {
	driven := make([]uint8, len(d.Nodes)) // bit p set: input port p has a driver
	for _, e := range d.Edges {
		if e.From < 0 || e.From >= len(d.Nodes) || e.To < 0 || e.To >= len(d.Nodes) {
			return fmt.Errorf("ir: edge endpoint out of range: %+v", e)
		}
		to := d.Nodes[e.To]
		if e.ToPort < 0 || e.ToPort >= to.Kind.Arity() {
			return fmt.Errorf("ir: edge %v->%v port %d out of arity %d for %v",
				e.From, e.To, e.ToPort, to.Kind.Arity(), to.Kind)
		}
		bit := uint8(1) << e.ToPort
		if driven[e.To]&bit != 0 {
			return fmt.Errorf("ir: input port %d of node %v driven twice", e.ToPort, to)
		}
		driven[e.To] |= bit
	}
	for _, n := range d.Nodes {
		ar := n.Kind.Arity()
		for p := 0; p < ar; p++ {
			if p == 1 && n.HasConst {
				continue
			}
			if driven[n.ID]&(1<<p) == 0 {
				return fmt.Errorf("ir: input port %d of node %v undriven", p, n)
			}
		}
	}
	if !d.indexed {
		d.index() // a validated DFG is published indexed (see DFG)
	}
	for _, e := range d.Edges {
		if e.From >= e.To && driven[e.From] != 0 {
			_, err := d.TopoOrder()
			return err
		}
	}
	return nil
}

// Stats summarizes node counts by kind, for logging and tests.
func (d *DFG) Stats() string {
	counts := map[OpKind]int{}
	for _, n := range d.Nodes {
		counts[n.Kind]++
	}
	kinds := make([]OpKind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "%d nodes, %d edges (", len(d.Nodes), len(d.Edges))
	for i, k := range kinds {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", k, counts[k])
	}
	b.WriteString(")")
	return b.String()
}
