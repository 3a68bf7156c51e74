// Package mrrg implements the Modulo Routing Resource Graph of the
// mapping problem (§IV): the CGRA's resources time-extended to II cycles,
// with cycle II-1 wrapping back to cycle 0. The graph is *implicit* —
// adjacency is computed on demand from (cycle, row, col, resource) — so
// 64×64 arrays with large IIs never materialize millions of nodes; the
// router only touches what Dijkstra visits.
//
// Time convention: traversal (Succ, node times in paths) uses *real*
// (unwrapped) cycle numbers, so a route's length always equals the true
// latency between producer and consumer — a value can never be confused
// with its counterpart from a different block initiation. The modulo wrap
// appears only in Key(), which folds real time into [0, II) for resource
// occupancy accounting, and when configurations are stamped (the schedule
// repeats every II cycles).
//
// Resources per PE per cycle:
//   - one FU (the ALU slot operations are placed on),
//   - four directional output registers (a value written at t is visible
//     to the neighbor at t+1; output registers may also hold),
//   - NumRegs register-file entries with per-cycle hold chains, guarded by
//     RF read/write port capacity nodes (2r/2w),
//   - one data-memory read and one write port (loads/stores).
package mrrg

import (
	"fmt"

	"himap/internal/arch"
)

// Class enumerates resource node classes.
type Class uint8

const (
	ClassFU Class = iota
	ClassOut
	ClassReg
	ClassRFRead
	ClassRFWrite
	ClassMemRead
	ClassMemWrite
	numClasses
)

// NumClasses is the number of resource node classes — exported so cost
// models can size per-class tables without hardcoding the count.
const NumClasses = int(numClasses)

var classNames = [...]string{"FU", "OUT", "REG", "RFR", "RFW", "MRD", "MWR"}

// String returns the class mnemonic.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Node identifies one resource at one (real) cycle.
type Node struct {
	T     int
	R, C  int
	Class Class
	Idx   uint8 // direction for ClassOut, register index for ClassReg
}

// String renders the node, e.g. "OUT.E@(1,2)t3".
func (n Node) String() string {
	switch n.Class {
	case ClassOut:
		return fmt.Sprintf("OUT.%s@(%d,%d)t%d", arch.Dir(n.Idx), n.R, n.C, n.T)
	case ClassReg:
		return fmt.Sprintf("REG%d@(%d,%d)t%d", n.Idx, n.R, n.C, n.T)
	default:
		return fmt.Sprintf("%s@(%d,%d)t%d", n.Class, n.R, n.C, n.T)
	}
}

// Shifted returns the node displaced by (dt, dr, dc) — used when
// replicating canonical routes across iteration clusters.
func (n Node) Shifted(dt, dr, dc int) Node {
	return Node{T: n.T + dt, R: n.R + dr, C: n.C + dc, Class: n.Class, Idx: n.Idx}
}

// Graph is an implicit time-extended routing resource graph. Routing
// nodes are derived from the fabric's enumerated links: the per-PE
// output-register set matches the fabric's link directions, neighbor
// adjacency follows Fabric.LinkNeighbor (wrapping on a torus), and
// memory-port nodes exist only on memory-capable PEs.
type Graph struct {
	Fab arch.Fabric
	// II is the wrap period when Wrap is set; otherwise the time depth of
	// a non-modular time extension (used for sub-CGRA feasibility checks).
	II   int
	Wrap bool

	// links is the flattened per-PE interconnect table: links[pe*nd+d] is
	// the destination PE index of direction d's link out of pe, or -1
	// when the fabric has no such link (array edge on a mesh, suppressed
	// size-1 self-link on a torus). Precomputed by the constructors so
	// the successor enumeration on the router's hot path is table lookups
	// instead of repeated topology math.
	links []int32

	// sharedOut folds every ClassOut direction of a PE onto one
	// occupancy slot (BWBus fabrics): all egress directions then charge
	// a single capacity-1 resource per cycle, modelling the shared
	// single-driver bus. Dense slot *indices* keep the per-direction
	// layout (with holes) so search scratch arrays are unaffected.
	sharedOut bool

	// nd, slots and stride cache NumDirs(), SlotsPerPE() and the dense
	// keys per cycle (NumPEs() × slots): SlotIndex, DenseKey and TimeBase
	// sit on every relaxed edge and occupancy charge, and re-deriving
	// them from the fabric costs more than the key arithmetic itself.
	nd, slots, stride int
}

// New returns the MRRG of the fabric, time-extended to ii cycles with
// modulo wrap-around for resource accounting (H_II of §IV).
func New(f arch.Fabric, ii int) *Graph {
	return newGraph(f, ii, true)
}

// NewAcyclic returns a non-wrapping time extension of depth cycles (used
// for IDFG → sub-CGRA mapping, H” of §IV).
func NewAcyclic(f arch.Fabric, depth int) *Graph {
	return newGraph(f, depth, false)
}

func newGraph(f arch.Fabric, ii int, wrap bool) *Graph {
	g := &Graph{Fab: f, II: ii, Wrap: wrap, links: buildLinks(f), sharedOut: f.SharedOutBus()}
	g.nd = f.NumLinkDirs()
	g.slots = 5 + g.nd + f.NumRegs
	g.stride = f.NumPEs() * g.slots
	return g
}

func buildLinks(f arch.Fabric) []int32 {
	nd := f.NumLinkDirs()
	links := make([]int32, f.NumPEs()*nd)
	for r := 0; r < f.Rows; r++ {
		for c := 0; c < f.Cols; c++ {
			for d := 0; d < nd; d++ {
				i := (r*f.Cols+c)*nd + d
				if nr, nc, ok := f.LinkNeighbor(r, c, arch.Dir(d)); ok {
					links[i] = int32(nr*f.Cols + nc)
				} else {
					links[i] = -1
				}
			}
		}
	}
	return links
}

// NumDirs returns the per-PE link-direction (output register) count.
func (g *Graph) NumDirs() int { return g.nd }

// LinkTable returns the read-only per-PE interconnect table Succ walks:
// entry pe*NumDirs()+d is the PE index (row*Cols + col) at the far end
// of direction d's link out of pe, or -1 where the fabric has no such
// link. The router's A* core enumerates successors from it in index
// space; callers must not write to it.
func (g *Graph) LinkTable() []int32 { return g.links }

// WrapTime folds a real cycle into the occupancy period [0, II).
func (g *Graph) WrapTime(t int) int {
	if t %= g.II; t < 0 {
		t += g.II
	}
	return t
}

// ValidTime reports whether a real cycle exists in the extension: always
// true for modular graphs (t >= 0), bounded for acyclic graphs.
func (g *Graph) ValidTime(t int) bool {
	if g.Wrap {
		return true
	}
	return t >= 0 && t < g.II
}

// Key packs the node into an occupancy key; real time is folded modulo
// II and, on wrap-around topologies, space is folded into the array.
func (g *Graph) Key(n Node) uint64 {
	r, c := g.Fab.WrapCoord(n.R, n.C)
	return ((uint64(g.WrapTime(n.T))*uint64(g.Fab.Rows)+uint64(r))*uint64(g.Fab.Cols)+uint64(c))*resSpan + resKey(n)
}

// resSpan is the per-(cycle, PE) stride of Key and RealKey: a full byte
// of Idx under each class, so register indices up to 255 never alias the
// next class. The packing is lexicographic in (Class, Idx), which keeps
// key order — the router's deterministic tie-break — independent of
// how wide the Idx field is.
const resSpan = uint64(numClasses) << 8

func resKey(n Node) uint64 { return uint64(n.Class)<<8 | uint64(n.Idx) }

// RealKey packs the node with its real (unwrapped) time — unique per real
// node, used for per-net reuse bookkeeping. Rows and columns take eight
// bits each (arch.MaxSide) and the key is lexicographic in
// (T, R, C, Class, Idx).
func RealKey(n Node) uint64 {
	return ((uint64(n.T+1024)*arch.MaxSide+uint64(n.R))*arch.MaxSide+uint64(n.C))*resSpan + resKey(n)
}

// SlotsPerPE returns the number of distinct resource slots one PE holds
// per cycle: the FU, the fabric's directional output registers, the RF
// read/write ports, the two memory ports, and NumRegs register-file
// entries. It is the stride of the dense key space (9 + NumRegs on
// 4-direction fabrics, matching the pre-Fabric layout exactly).
func (g *Graph) SlotsPerPE() int { return g.slots }

// SlotIndex packs a (class, idx) resource into a dense per-PE slot in
// [0, SlotsPerPE()) — unlike the sparse class*8+idx packing of Key and
// RealKey, the dense slot space has no holes, so occupancy and search
// scratch state can live in flat arrays instead of maps.
func (g *Graph) SlotIndex(c Class, idx uint8) int {
	nd := g.NumDirs()
	switch c {
	case ClassFU:
		return 0
	case ClassOut:
		return 1 + int(idx) // one slot per fabric link direction
	case ClassRFWrite:
		return 1 + nd
	case ClassRFRead:
		return 2 + nd
	case ClassMemRead:
		return 3 + nd
	case ClassMemWrite:
		return 4 + nd
	default: // ClassReg
		return 5 + nd + int(idx)
	}
}

// SlotResource inverts SlotIndex.
func (g *Graph) SlotResource(slot int) (Class, uint8) {
	nd := g.NumDirs()
	switch {
	case slot == 0:
		return ClassFU, 0
	case slot < 1+nd:
		return ClassOut, uint8(slot - 1)
	case slot == 1+nd:
		return ClassRFWrite, 0
	case slot == 2+nd:
		return ClassRFRead, 0
	case slot == 3+nd:
		return ClassMemRead, 0
	case slot == 4+nd:
		return ClassMemWrite, 0
	default:
		return ClassReg, uint8(slot - 5 - nd)
	}
}

// DenseKey packs the node into a dense occupancy index in
// [0, NumDenseKeys()); real time is folded modulo II exactly as in Key,
// and space wraps on wrap-around topologies (a translated route charges
// the folded resource — translation is a graph automorphism there).
func (g *Graph) DenseKey(n Node) int {
	r, c := g.Fab.WrapCoord(n.R, n.C)
	idx := n.Idx
	if g.sharedOut && n.Class == ClassOut {
		idx = 0 // all egress directions share one bus slot
	}
	return g.WrapTime(n.T)*g.stride + (r*g.Fab.Cols+c)*g.slots + g.SlotIndex(n.Class, idx)
}

// SharedOut reports whether DenseKey collapses the output-register
// directions of a PE onto one occupancy slot (BWBus fabrics). When true
// the dense key of a node is no longer a pure linear function of its
// per-direction slot index, so search cores must not derive occupancy
// keys by offsetting dense search indices.
func (g *Graph) SharedOut() bool { return g.sharedOut }

// NumDenseKeys returns the size of the dense occupancy key space.
func (g *Graph) NumDenseKeys() int { return g.II * g.Fab.NumPEs() * g.SlotsPerPE() }

// TimeBase returns the dense-key offset of one wrapped cycle: every node
// at real cycle t has DenseKey in [TimeBase(t), TimeBase(t)+NumPEs()*
// SlotsPerPE()). The router precomputes one TimeBase per real cycle of a
// search so the occupancy key of a relaxed node is a single add off its
// dense search index instead of a full DenseKey (mod + wrap + switch)
// evaluation.
func (g *Graph) TimeBase(t int) int { return g.WrapTime(t) * g.stride }

// Capacity returns the occupancy capacity of a node class under the
// fabric's bandwidth class: RF ports come from the (possibly narrowed)
// port counts, output registers from the link capacity (1 for the
// collapsed shared-bus slot), everything else is single-occupancy.
func (g *Graph) Capacity(c Class) int {
	switch c {
	case ClassRFRead:
		return g.Fab.RFReadCap()
	case ClassRFWrite:
		return g.Fab.RFWriteCap()
	case ClassOut:
		return g.Fab.LinkCapacity()
	default:
		return 1
	}
}

// Succ invokes fn for every successor of n along the value-flow edges
// described in the package comment. Times are real (monotone); space is
// bounds-checked; acyclic graphs stop at their depth. Link existence
// comes from the constructor-built per-PE table, so enumeration is a
// table scan rather than per-edge topology math.
func (g *Graph) Succ(n Node, fn func(Node)) {
	emit := func(t, r, c int, cl Class, idx uint8) {
		if !g.ValidTime(t) {
			return
		}
		fn(Node{T: t, R: r, C: c, Class: cl, Idx: idx})
	}
	nd := g.NumDirs()
	pe := n.R*g.Fab.Cols + n.C
	switch n.Class {
	case ClassFU, ClassMemRead:
		// Freshly produced (computed or loaded) value: fan out through the
		// crossbar to output registers, the RF write port, or the store port.
		for d := 0; d < nd; d++ {
			if g.links[pe*nd+d] >= 0 {
				emit(n.T, n.R, n.C, ClassOut, uint8(d))
			}
		}
		emit(n.T, n.R, n.C, ClassRFWrite, 0)
		if g.Fab.MemCapable(n.R, n.C) {
			emit(n.T, n.R, n.C, ClassMemWrite, 0)
		}
	case ClassOut:
		if np := g.links[pe*nd+int(n.Idx)]; np >= 0 {
			// Arrives at the neighbor next cycle: may be re-routed onward,
			// written to its RF, or stored.
			nr, nc := int(np)/g.Fab.Cols, int(np)%g.Fab.Cols
			for d2 := 0; d2 < nd; d2++ {
				if g.links[int(np)*nd+d2] >= 0 {
					emit(n.T+1, nr, nc, ClassOut, uint8(d2))
				}
			}
			emit(n.T+1, nr, nc, ClassRFWrite, 0)
			if g.Fab.MemCapable(nr, nc) {
				emit(n.T+1, nr, nc, ClassMemWrite, 0)
			}
		}
		// The output register may hold its value another cycle.
		emit(n.T+1, n.R, n.C, ClassOut, n.Idx)
	case ClassRFWrite:
		for k := 0; k < g.Fab.NumRegs; k++ {
			emit(n.T+1, n.R, n.C, ClassReg, uint8(k))
		}
	case ClassReg:
		emit(n.T+1, n.R, n.C, ClassReg, n.Idx) // hold
		emit(n.T, n.R, n.C, ClassRFRead, 0)    // read this cycle
	case ClassRFRead:
		for d := 0; d < nd; d++ {
			if g.links[pe*nd+d] >= 0 {
				emit(n.T, n.R, n.C, ClassOut, uint8(d))
			}
		}
		if g.Fab.MemCapable(n.R, n.C) {
			emit(n.T, n.R, n.C, ClassMemWrite, 0)
		}
	case ClassMemWrite:
		// Pure sink.
	}
}

// FUNode returns the FU node at real cycle t.
func (g *Graph) FUNode(t, r, c int) Node { return Node{T: t, R: r, C: c, Class: ClassFU} }

// MemReadNode returns the data-memory read-port node at real cycle t.
func (g *Graph) MemReadNode(t, r, c int) Node {
	return Node{T: t, R: r, C: c, Class: ClassMemRead}
}

// MemWriteNode returns the data-memory write-port node at real cycle t.
func (g *Graph) MemWriteNode(t, r, c int) Node {
	return Node{T: t, R: r, C: c, Class: ClassMemWrite}
}

// OperandTargets returns the set of acceptable final routing nodes for
// delivering a value to the FU at real cycle t of PE (r, c) as an ALU
// operand: an output register of a neighbor at t-1 (arriving on an input
// latch), this PE's RF read port at t (register operand), or this PE's
// memory read port at t (the producer is a load scheduled right here).
func (g *Graph) OperandTargets(t, r, c int) []Node {
	return g.AppendOperandTargets(nil, t, r, c)
}

// AppendOperandTargets is OperandTargets appending into dst, so callers
// routing many nets can reuse one arena instead of allocating a target
// slice per sink.
func (g *Graph) AppendOperandTargets(dst []Node, t, r, c int) []Node {
	out := dst
	for d := arch.Dir(0); d < arch.Dir(g.NumDirs()); d++ {
		nr, nc, ok := g.Fab.LinkNeighbor(r, c, d)
		if !ok {
			continue
		}
		if g.ValidTime(t - 1) {
			out = append(out, Node{T: t - 1, R: nr, C: nc, Class: ClassOut, Idx: uint8(d.Opposite())})
		}
	}
	if g.ValidTime(t) {
		out = append(out, Node{T: t, R: r, C: c, Class: ClassRFRead})
		if g.Fab.MemCapable(r, c) {
			out = append(out, Node{T: t, R: r, C: c, Class: ClassMemRead})
		}
	}
	return out
}
