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

	slab []Node // AddNode's backing store; a full slab is replaced, never grown

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
	return &DFG{Block: b}
}

// Grow reserves room for nodes more nodes and edges more edges, so a
// constructor that knows its size up front pays one allocation each.
func (d *DFG) Grow(nodes, edges int) {
	if cap(d.slab)-len(d.slab) < nodes {
		d.slab = make([]Node, 0, nodes)
	}
	d.Nodes = slices.Grow(d.Nodes, nodes)
	d.Edges = slices.Grow(d.Edges, edges)
}

// AddNode appends a node, assigning its ID, and returns it.
func (d *DFG) AddNode(n Node) *Node {
	n.ID = len(d.Nodes)
	if len(d.slab) == cap(d.slab) {
		// Earlier nodes keep pointing into the old slab. A quarter of
		// the nodes so far keeps the slab count logarithmic without
		// doubling a Grow-sized graph for its last few nodes.
		d.slab = make([]Node, 0, max(16, len(d.Nodes)/4))
	}
	d.slab = append(d.slab, n)
	p := &d.slab[len(d.slab)-1]
	d.Nodes = append(d.Nodes, p)
	d.indexed = false
	return p
}

// AddEdge appends a dependence edge from -> to at the given consumer port.
func (d *DFG) AddEdge(from, to, port int) {
	if from < 0 || from >= len(d.Nodes) || to < 0 || to >= len(d.Nodes) {
		panic(fmt.Sprintf("ir: AddEdge out of range (%d -> %d, %d nodes)", from, to, len(d.Nodes)))
	}
	d.Edges = append(d.Edges, Edge{From: from, To: to, ToPort: port})
	d.indexed = false
}

// index rebuilds the CSR adjacency. Edges with an endpoint out of range
// (only a hand-edited Edges slice has them; Validate reports them) are
// left out.
func (d *DFG) index() {
	n := len(d.Nodes)
	d.outOff, d.inOff, d.adj = csr(n, len(d.Edges), func(ei int) (int, int) {
		e := d.Edges[ei]
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return -1, -1
		}
		return e.From, e.To
	})
	d.indexed = true
}

// csr indexes m edges over n vertices: adj[outOff[v]:outOff[v+1]] lists
// the edges leaving v and adj[inOff[v]:inOff[v+1]] those entering it,
// both in edge order. It counts each vertex's degrees, prefix-sums the
// counts into offsets, then drops every edge into its slot — a stable
// counting sort, three allocations whatever n and m are. ends names the
// endpoints of edge ei; a negative from skips the edge.
func csr(n, m int, ends func(ei int) (from, to int)) (outOff, inOff []int32, adj []int) {
	off := make([]int32, 2*(n+1))
	outOff, inOff = off[:n+1], off[n+1:]
	for ei := 0; ei < m; ei++ {
		if from, to := ends(ei); from >= 0 {
			outOff[from]++
			inOff[to]++
		}
	}
	// Counts to start offsets; every in-list follows the out-lists.
	sum := int32(0)
	for i, c := range off {
		off[i] = sum
		sum += c
	}
	adj = make([]int, sum)
	for ei := 0; ei < m; ei++ {
		if from, to := ends(ei); from >= 0 {
			adj[outOff[from]] = ei
			outOff[from]++
			adj[inOff[to]] = ei
			inOff[to]++
		}
	}
	// Filling advanced each start to the next vertex's start: shift back.
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	return outOff, inOff, adj
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
	if _, err := d.TopoOrder(); err != nil {
		return err
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
