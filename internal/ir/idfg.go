package ir

import (
	"fmt"
	"sort"
	"strings"
)

// IOPort describes one input or output node of an IDFG: a DFG node outside
// the iteration cluster that directly connects to a node inside it
// (V^I of §IV), annotated with the iteration-distance of the connection.
type IOPort struct {
	Inside  int     // DFG node ID inside the cluster
	Outside int     // DFG node ID outside the cluster
	Port    int     // consumer input port (for inputs: port on Inside; for outputs: port on Outside)
	Dist    IterVec // Outside.Iter - Inside.Iter (inputs: negative of the dependence distance)
}

// IDFG is the Intra-iteration Data-Flow Graph D”_i of a cluster: the
// cluster's own nodes (computation nodes V^F) plus its interface to the
// rest of the DFG (input/output nodes V^I).
type IDFG struct {
	Cluster *Cluster
	DFG     *DFG
	Comp    []int  // node IDs inside the cluster
	Inner   []Edge // edges with both endpoints inside
	Inputs  []IOPort
	Outputs []IOPort
}

// ExtractIDFG builds the IDFG of cluster ci of the ISDG.
func ExtractIDFG(g *ISDG, ci int) *IDFG {
	c := g.Clusters[ci]
	f := &IDFG{Cluster: c, DFG: g.DFG}
	f.Comp = append(f.Comp, c.Nodes...)
	for _, id := range c.Nodes {
		for _, ei := range g.DFG.InEdges(id) {
			e := g.DFG.Edges[ei]
			if g.ClusterOf(e.From) == ci {
				f.Inner = append(f.Inner, e)
				continue
			}
			from := g.DFG.Nodes[e.From]
			f.Inputs = append(f.Inputs, IOPort{
				Inside:  id,
				Outside: e.From,
				Port:    e.ToPort,
				Dist:    from.Iter.Sub(c.Iter),
			})
		}
		for _, ei := range g.DFG.OutEdges(id) {
			e := g.DFG.Edges[ei]
			if g.ClusterOf(e.To) == ci {
				continue // recorded once as Inner on the consumer side
			}
			to := g.DFG.Nodes[e.To]
			f.Outputs = append(f.Outputs, IOPort{
				Inside:  id,
				Outside: e.To,
				Port:    e.ToPort,
				Dist:    to.Iter.Sub(c.Iter),
			})
		}
	}
	return f
}

// NumCompute returns the number of FU-occupying nodes of the IDFG.
func (f *IDFG) NumCompute() int {
	n := 0
	for _, id := range f.Comp {
		if f.DFG.Nodes[id].Kind.IsCompute() {
			n++
		}
	}
	return n
}

// StructuralSignature is a canonical string identifying the *shape* of the
// IDFG independent of absolute iteration position: per inside node its
// body-op and kind, per inner edge the body-op endpoints, and per I/O port
// the (body-op, port, iteration distance) triple. Two clusters with equal
// structural signatures perform the same computation with the same
// dependence geometry in iteration space. (The space-time uniqueness test
// of Algorithm 1, which additionally folds in the systolic placement, is
// implemented in the himap package.)
func (f *IDFG) StructuralSignature() string {
	var parts []string
	for _, id := range f.Comp {
		n := f.DFG.Nodes[id]
		tag := fmt.Sprintf("N:%d:%s", n.BodyOp, n.Kind)
		if n.Kind.IsMemory() && n.BodyOp < 0 { // synthesized at the block boundary
			tag += ":" + n.Tensor
		}
		parts = append(parts, tag)
	}
	for _, e := range f.Inner {
		fn, tn := f.DFG.Nodes[e.From], f.DFG.Nodes[e.To]
		parts = append(parts, fmt.Sprintf("E:%d>%d.%d", fn.BodyOp, tn.BodyOp, e.ToPort))
	}
	for _, p := range f.Inputs {
		in, out := f.DFG.Nodes[p.Inside], f.DFG.Nodes[p.Outside]
		parts = append(parts, fmt.Sprintf("I:%d.%d<%d@%s", in.BodyOp, p.Port, out.BodyOp, p.Dist.Key()))
	}
	for _, p := range f.Outputs {
		in, out := f.DFG.Nodes[p.Inside], f.DFG.Nodes[p.Outside]
		parts = append(parts, fmt.Sprintf("O:%d>%d.%d@%s", in.BodyOp, out.BodyOp, p.Port, p.Dist.Key()))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// CountStructuralClasses groups all clusters of the ISDG by structural
// signature and returns the number of distinct classes. This is the
// iteration-space analogue of Table II's "max unique iterations" before
// the systolic placement refinement.
func CountStructuralClasses(g *ISDG) int {
	seen := make(map[string]bool)
	for _, c := range g.Clusters {
		seen[ExtractIDFG(g, c.ID).StructuralSignature()] = true
	}
	return len(seen)
}
