package kernel

import (
	"encoding/binary"
	"fmt"
	"slices"

	"himap/internal/ir"
)

// Body-op encodings for synthesized memory nodes. Load nodes feeding body
// op i's port p get BodyOp = -(1 + i*2 + p); store nodes for op i's rule r
// get BodyOp = -(1000 + i*8 + r). Negative BodyOps mark boundary/memory
// nodes and keep unique-iteration signatures deterministic.
func loadBodyOp(op, port int) int  { return -(1 + op*2 + port) }
func storeBodyOp(op, rule int) int { return -(1000 + op*8 + rule) }

// selectCase returns the index of the first case whose guard holds at
// iter.
func selectCase(in Input, iter ir.IterVec, block []int) (int, error) {
	for i := range in {
		if in[i].When.Eval(iter, block) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("kernel: no case matches at iteration %v", iter)
}

// BuildDFG fully unrolls the kernel over the block and returns the DFG of
// §IV. Every dependence whose producer falls outside the block must be
// covered by a guard selecting a memory or constant source; the builder
// returns an error otherwise (the specification is then ill-formed).
func (k *Kernel) BuildDFG(block []int) (*ir.DFG, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if len(block) != k.Dim {
		return nil, fmt.Errorf("kernel %s: block %v has %d dims, want %d", k.Name, block, len(block), k.Dim)
	}
	for d, b := range block {
		if d < len(k.FixedBlock) && k.FixedBlock[d] > 0 {
			if b != k.FixedBlock[d] {
				return nil, fmt.Errorf("kernel %s: block dim %d is %d but pinned to %d", k.Name, d, b, k.FixedBlock[d])
			}
			continue
		}
		if b < max(k.MinBlock, 1) {
			return nil, fmt.Errorf("kernel %s: block dim %d is %d, min %d", k.Name, d, b, max(k.MinBlock, 1))
		}
	}
	// The iteration space is a box, so everything per point is a row of
	// a dense table: nodes come from one slab sized for the body ops
	// (boundary loads and stores spill into a second), iteration vectors
	// from one flat array, and a producer is found in the DFG's node
	// table by offsetting the consumer's point index — PointIndex is
	// linear.
	npts := ir.BoxSize(block)
	b := dfgBuilder{k: k, block: block, d: ir.NewDFG(block), names: map[string]string{}, shapes: map[string]int32{}}
	b.d.Shapes = make([]int32, npts)
	// One edge per point per input port and store rule; one node-table
	// row per body op, per store rule and per port that can load.
	ports, rows := 0, len(k.Body)
	for _, op := range k.Body {
		ports += op.Kind.Arity() + len(op.Stores)
		rows += len(op.Stores)
		for _, in := range []Input{op.A, op.B}[:op.Kind.Arity()] {
			if slices.ContainsFunc(in, func(c Case) bool { return c.Src.Kind == SrcMem }) {
				rows++
			}
		}
	}
	b.d.Grow(len(k.Body)*npts, ports*npts, rows)
	iters := make([]int, npts*k.Dim)
	pi := 0
	ir.ForEachPoint(block, func(pt ir.IterVec) {
		if b.err != nil {
			return
		}
		iter := ir.IterVec(iters[pi*k.Dim : (pi+1)*k.Dim : (pi+1)*k.Dim])
		copy(iter, pt)
		b.point(iter, pi)
		pi++
	})
	if b.err != nil {
		return nil, b.err
	}
	if err := b.d.Validate(); err != nil {
		return nil, fmt.Errorf("kernel %s: generated DFG invalid: %v", k.Name, err)
	}
	return b.d, nil
}

// dfgBuilder is the state of one BuildDFG unrolling.
type dfgBuilder struct {
	k      *Kernel
	block  []int
	d      *ir.DFG
	names  map[string]string // "ld."/"st." + tensor, built once per tensor
	shapes map[string]int32  // guard shape -> its ID in d.Shapes
	shape  []byte            // the guard shape of the point being built
	err    error
}

// name returns prefix+tensor, concatenated once per build.
func (b *dfgBuilder) name(prefix, tensor string) string {
	// A short concatenation that does not escape stays on the stack, so
	// a hit allocates nothing.
	if s, ok := b.names[prefix+tensor]; ok {
		return s
	}
	s := prefix + tensor
	b.names[s] = s
	return s
}

// point creates the nodes of iteration iter, whose point index is pi,
// and records its guard shape: the case each input port selected and the
// store rules that fired, in body order.
func (b *dfgBuilder) point(iter ir.IterVec, pi int) {
	k, d := b.k, b.d
	b.shape = b.shape[:0]
	for opIdx := range k.Body {
		op := &k.Body[opIdx]
		n := d.AddNode(&ir.Node{
			Kind:   op.Kind,
			Name:   op.Name,
			BodyOp: opIdx,
			Iter:   iter,
		})
		ar := op.Kind.Arity()
		if ar >= 1 {
			b.wire(n, op, op.A, 0, pi)
		}
		if ar >= 2 {
			b.wire(n, op, op.B, 1, pi)
		}
		if b.err != nil {
			return
		}
		for ri := range op.Stores {
			st := &op.Stores[ri]
			if !st.When.Eval(iter, b.block) {
				b.shape = append(b.shape, 0)
				continue
			}
			b.shape = append(b.shape, 1)
			sn := d.AddNode(&ir.Node{
				Kind:   ir.OpStore,
				Name:   b.name("st.", st.Tensor),
				BodyOp: storeBodyOp(opIdx, ri),
				Iter:   iter,
				Tensor: st.Tensor,
				Index:  st.Map.Apply(iter),
			})
			d.AddEdge(n.ID, sn.ID, 0)
		}
	}
	id, ok := b.shapes[string(b.shape)]
	if !ok {
		id = int32(len(b.shapes))
		b.shapes[string(b.shape)] = id
	}
	d.Shapes[pi] = id
}

// wire connects input port of node n (body op op, at point index pi) to
// the source its guards select there.
func (b *dfgBuilder) wire(n *ir.Node, op *BodyOp, in Input, port, pi int) {
	if b.err != nil {
		return
	}
	k, d, iter := b.k, b.d, n.Iter
	ci, err := selectCase(in, iter, b.block)
	if err != nil {
		b.err = fmt.Errorf("kernel %s op %s port %d: %v", k.Name, op.Name, port, err)
		return
	}
	b.shape = binary.AppendUvarint(b.shape, uint64(ci))
	src := &in[ci].Src
	switch src.Kind {
	case SrcDep:
		ppi := pi
		if !src.Dist.IsZero() {
			d.AddDistance(src.Dist)
			for i, dv := range src.Dist {
				if v := iter[i] - dv; v < 0 || v >= b.block[i] {
					b.err = fmt.Errorf("kernel %s op %s at %v: dependence source %v outside block %v (missing boundary guard)",
						k.Name, op.Name, iter, iter.Sub(src.Dist), b.block)
					return
				}
			}
			ppi -= ir.PointIndex(src.Dist, b.block)
		}
		pid := -1
		if row := d.NodeRow(src.Op); row >= 0 {
			pid = d.NodeAt(row + ppi)
		}
		if pid < 0 {
			prodIter := iter
			if len(src.Dist) > 0 {
				prodIter = iter.Sub(src.Dist)
			}
			b.err = fmt.Errorf("kernel %s op %s at %v: producer op %d at %v not yet created (non-causal order)",
				k.Name, op.Name, iter, src.Op, prodIter)
			return
		}
		d.AddEdge(pid, n.ID, port)
	case SrcMem:
		ld := d.AddNode(&ir.Node{
			Kind:   ir.OpLoad,
			Name:   b.name("ld.", src.Tensor),
			BodyOp: loadBodyOp(n.BodyOp, port),
			Iter:   iter,
			Tensor: src.Tensor,
			Index:  src.Map.Apply(iter),
		})
		d.AddEdge(ld.ID, n.ID, port)
	case SrcConst:
		if port != 1 {
			b.err = fmt.Errorf("kernel %s op %s: constant sources are only supported on port 1", k.Name, op.Name)
			return
		}
		n.HasConst = true
		n.Const = src.Value
	}
}

// BuildISDG unrolls the kernel and clusters the DFG by iteration, from
// what the unroll recorded as it wrote the DFG.
func (k *Kernel) BuildISDG(block []int) (*ir.DFG, *ir.ISDG, error) {
	d, err := k.BuildDFG(block)
	if err != nil {
		return nil, nil, err
	}
	g, err := ir.BuildISDG(d) // every node of an unrolled block lies in it
	return d, g, err
}

// GenericIDFG returns the IDFG of an interior iteration: the per-iteration
// graph whose inputs all arrive from neighboring iterations. It is the
// D” = getIDFG(K) of Algorithm 1 line 2, used for the IDFG → sub-CGRA
// mapping step. The interior point of a small (3 per dimension, clamped to
// MinBlock) unrolled block is used.
func (k *Kernel) GenericIDFG() (*ir.IDFG, error) {
	_, g, err := k.BuildISDG(k.UniformBlock(max(3, k.MinBlock)))
	if err != nil {
		return nil, err
	}
	center := make(ir.IterVec, k.Dim)
	for i := range center {
		center[i] = 1
	}
	c := g.ClusterAt(center)
	if c == nil {
		return nil, fmt.Errorf("kernel %s: no interior cluster at %v", k.Name, center)
	}
	return ir.ExtractIDFG(g, c.ID), nil
}
