package route

import (
	"fmt"
	"strconv"
	"strings"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/mrrg"
)

// Emitter lowers placements and routed paths into a CGRA configuration
// in two steps. Recording (Template) runs the emission rules — operand
// source derivation, hold and RF-write rules, fan-out predecessor
// context — once over a set of placements and paths and keeps the result
// as a flat list of field writes. Replay stamps that list onto the
// configuration under a space-time translation, claiming every written
// field in a dense owner table. A claim carries the identity of the value
// the field serves: re-stamping a field with the same value and the same
// contents is idempotent — which is exactly what HiMap's REPLICATE step
// relies on — while a differing value or differing contents is a
// conflict.
type Emitter struct {
	Cfg *arch.Config
	d   *ir.DFG
	// owner holds, per (PE, wrapped cycle, lane), the claiming value plus
	// one; zero is unclaimed. The table is slot-major like Cfg.Slots, so
	// the lanes of one instruction word share a cache line.
	owner []int32
	nd    int // link directions per PE (out lanes)
	nregs int // registers per PE (hold lanes, then write lanes)
	buf   []byte
	// The configuration's small per-word pieces — register-write lists,
	// tensor indices, comments and tags — are carved from shared chunks
	// instead of allocated one by one.
	regWr []arch.RegWrite
	index []int
	text  strings.Builder
}

// NewEmitter wraps a configuration for conflict-checked emission of
// values of d: a stamped value is a node id of d, whose tensor and index
// label the memory accesses.
func NewEmitter(cfg *arch.Config, d *ir.DFG) *Emitter {
	f := cfg.Fabric
	e := &Emitter{Cfg: cfg, d: d, nd: f.NumLinkDirs(), nregs: f.NumRegs}
	e.owner = make([]int32, f.NumPEs()*cfg.II*e.lanes())
	return e
}

// Claim lanes of one instruction word. The out, hold and write lanes are
// sized from the fabric, so no register or direction index can land in
// another lane's range.
const (
	laneFU = iota
	laneMemRead
	laneMemWrite
	laneSrcA
	laneSrcB
	laneOut0 // + direction; then one hold lane and one write lane per register
)

func (e *Emitter) lanes() int          { return laneOut0 + e.nd + 2*e.nregs }
func (e *Emitter) laneHold(k int) int  { return laneOut0 + e.nd + k }
func (e *Emitter) laneWrite(k int) int { return laneOut0 + e.nd + e.nregs + k }

func (e *Emitter) laneName(lane int) string {
	switch {
	case lane < laneOut0:
		return [...]string{"FU", "MRD", "MWR", "SRCA", "SRCB"}[lane]
	case lane < e.laneHold(0):
		return "OUT." + arch.Dir(lane-laneOut0).String()
	case lane < e.laneWrite(0):
		return "REG" + strconv.Itoa(lane-e.laneHold(0))
	}
	return "REGW" + strconv.Itoa(lane-e.laneWrite(0))
}

// Value suffixes: a claim is held by a node's result, by its immediate
// operand, or by the zero immediate of a flat-mapper move.
const (
	sufResult = iota
	sufConst
	sufMov
)

// appendValue renders a claim's value the way tags were historically
// written ("n12", "n12:const"): the text of op comments and of conflict
// errors.
func appendValue(b []byte, v int32) []byte {
	b = strconv.AppendInt(append(b, 'n'), int64(v>>2), 10)
	return append(b, [...]string{"", ":const", ":mov", ""}[v&3]...)
}

func valueName(v int32) string { return string(appendValue(nil, v)) }

// stamp is one recorded field write: the instruction slot, the claim
// lane (which also selects the field), the value it serves, and the
// field contents.
type stamp struct {
	t, r, c int32
	lane    int32
	ref     int32 // index into Replay's ids: the node whose value is carried
	suf     int32
	aux     int32        // laneFU: the op kind; laneMemWrite: ref of the store node
	src     arch.Operand // operand written (unused on FU, mem-read and hold lanes)
}

// Template is a recorded emission: the field writes of a set of placed
// ops, loads and routed paths, relative to the positions they were
// recorded at. Values are recorded as refs — indices into the id table
// handed to Replay — so one template serves every translate of the
// recorded structure.
type Template struct {
	e              *Emitter
	stamps         []stamp
	r0, r1, c0, c1 int32 // the box of the stamps' PEs (empty: r0 > r1), which Replay checks once
	// tree lists (node, predecessor) for every path node of the net being
	// recorded. Fan-out paths may start anywhere in the already-routed
	// tree; the context before their first node (e.g. which register feeds
	// an RF read) comes from here.
	tree    []treeEdge
	treeRef int
}

type treeEdge struct{ node, pred mrrg.Node }

// NewTemplate starts an empty recording against the emitter's fabric.
func (e *Emitter) NewTemplate() *Template {
	return &Template{e: e, treeRef: -1, r0: 1 << 30, c0: 1 << 30, r1: -1, c1: -1}
}

func (t *Template) add(n mrrg.Node, lane, ref, suf, aux int, src arch.Operand) {
	r, c := int32(n.R), int32(n.C)
	t.r0, t.r1, t.c0, t.c1 = min(t.r0, r), max(t.r1, r), min(t.c0, c), max(t.c1, c)
	t.stamps = append(t.stamps, stamp{
		t: int32(n.T), r: r, c: c,
		lane: int32(lane), ref: int32(ref), suf: int32(suf), aux: int32(aux), src: src,
	})
}

// predOf returns the node that fed n on an earlier path of the current
// net, or an off-array FU node when n starts the net.
func (t *Template) predOf(n mrrg.Node) mrrg.Node {
	for i := len(t.tree) - 1; i >= 0; i-- {
		if t.tree[i].node == n {
			return t.tree[i].pred
		}
	}
	return mrrg.Node{Class: mrrg.ClassFU, R: -1, C: -1}
}

// PlaceOp records a compute operation on an FU slot; ref is the node.
func (t *Template) PlaceOp(n mrrg.Node, kind ir.OpKind, ref int) error {
	if n.Class != mrrg.ClassFU {
		return fmt.Errorf("route: PlaceOp on %v: %w", n, diag.ErrConfigInvalid)
	}
	t.add(n, laneFU, ref, sufResult, int(kind), arch.Operand{})
	return nil
}

// PlaceMove records a flat-mapper routing node: data propagation that
// occupies an FU as a move (add #0).
func (t *Template) PlaceMove(n mrrg.Node, ref int) error {
	if err := t.PlaceOp(n, ir.OpAdd, ref); err != nil {
		return err
	}
	t.add(n, laneSrcB, ref, sufMov, 0, arch.FromConst(0))
	return nil
}

// SetConstOperand records node ref's immediate on its port 1.
func (t *Template) SetConstOperand(fu mrrg.Node, v int64, ref int) {
	t.add(fu, laneSrcB, ref, sufConst, 0, arch.FromConst(v))
}

// PlaceLoad records a data-memory read on a memory port slot; ref is the
// load node.
func (t *Template) PlaceLoad(n mrrg.Node, ref int) error {
	if n.Class != mrrg.ClassMemRead {
		return fmt.Errorf("route: PlaceLoad on %v: %w", n, diag.ErrConfigInvalid)
	}
	t.add(n, laneMemRead, ref, sufResult, 0, arch.Operand{})
	return nil
}

// operandFrom derives the crossbar source selector exposing the value
// carried at node cur, where prev is the node before cur on the path
// (needed for register reads) and consumer identifies the PE/cycle that
// consumes (to translate Out registers into input-latch directions).
func operandFrom(cur, prev mrrg.Node, atR, atC, atT int) (arch.Operand, error) {
	switch cur.Class {
	case mrrg.ClassFU:
		if cur.R != atR || cur.C != atC || cur.T != atT {
			return arch.Operand{}, fmt.Errorf("route: ALU tap across PEs (%v consumed at (%d,%d)t%d): %w", cur, atR, atC, atT, diag.ErrConfigInvalid)
		}
		return arch.FromALU(), nil
	case mrrg.ClassMemRead:
		if cur.R != atR || cur.C != atC || cur.T != atT {
			return arch.Operand{}, fmt.Errorf("route: mem tap across PEs (%v at (%d,%d)t%d): %w", cur, atR, atC, atT, diag.ErrConfigInvalid)
		}
		return arch.FromMem(), nil
	case mrrg.ClassRFRead:
		if prev.Class != mrrg.ClassReg {
			return arch.Operand{}, fmt.Errorf("route: RF read not preceded by register node (%v): %w", prev, diag.ErrConfigInvalid)
		}
		return arch.FromReg(int(prev.Idx)), nil
	case mrrg.ClassOut:
		d := arch.Dir(cur.Idx)
		if cur.R == atR && cur.C == atC {
			// Same PE, earlier cycle: output register holding (only valid
			// when driving the same output register).
			return arch.Hold(), nil
		}
		// The value sits in the neighbor's output register pointed at us;
		// it arrives on our input latch from the neighbor's direction.
		return arch.FromIn(d.Opposite()), nil
	}
	return arch.Operand{}, fmt.Errorf("route: no operand form for %v: %w", cur, diag.ErrConfigInvalid)
}

// EmitPath records all routing fields of one path carrying node ref's
// value; store is the ref of the store node when the path terminates at
// a memory write port. The paths of one net must be recorded
// consecutively: a change of ref starts a new routed tree.
func (t *Template) EmitPath(p Path, ref, store int) error {
	if ref != t.treeRef {
		t.tree, t.treeRef = t.tree[:0], ref
	}
	nodeAt := func(i int) mrrg.Node {
		if i >= 0 {
			return p[i]
		}
		return t.predOf(p[0])
	}
	for i := 1; i < len(p); i++ {
		t.tree = append(t.tree, treeEdge{p[i], p[i-1]})
	}
	for i := 1; i < len(p); i++ {
		cur := p[i]
		prev := p[i-1]
		switch cur.Class {
		case mrrg.ClassOut:
			src, err := operandFrom(prev, nodeAt(i-2), cur.R, cur.C, cur.T)
			if err != nil {
				return err
			}
			if src.Kind == arch.OpdHold && cur.Idx != prev.Idx {
				return fmt.Errorf("route: hold across output registers (%v <- %v): %w", cur, prev, diag.ErrConfigInvalid)
			}
			t.add(cur, laneOut0+int(cur.Idx), ref, sufResult, 0, src)
		case mrrg.ClassReg:
			// Value occupancy of the register during cycle cur.T.
			t.add(cur, t.e.laneHold(int(cur.Idx)), ref, sufResult, 0, arch.Operand{})
			if prev.Class == mrrg.ClassRFWrite {
				// A write at prev.T places the value; source is the node
				// before the write port.
				src, err := operandFrom(nodeAt(i-2), nodeAt(i-3), prev.R, prev.C, prev.T)
				if err != nil {
					return err
				}
				t.add(prev, t.e.laneWrite(int(cur.Idx)), ref, sufResult, 0, src)
			}
		case mrrg.ClassRFWrite, mrrg.ClassRFRead:
			// Port passages; fields are emitted at the adjacent nodes.
		case mrrg.ClassMemWrite:
			src, err := operandFrom(prev, nodeAt(i-2), cur.R, cur.C, cur.T)
			if err != nil {
				return err
			}
			t.add(cur, laneMemWrite, ref, sufResult, store, src)
		default:
			return fmt.Errorf("route: unexpected path node %v: %w", cur, diag.ErrConfigInvalid)
		}
	}
	return nil
}

// SetOperand records a consumer's ALU source port taking the value
// delivered by the final nodes of a path (last = p[len-1], the delivery
// node) of node ref's net.
func (t *Template) SetOperand(fu mrrg.Node, port int, p Path, ref int) error {
	if fu.Class != mrrg.ClassFU {
		return fmt.Errorf("route: SetOperand on %v: %w", fu, diag.ErrConfigInvalid)
	}
	last := p[len(p)-1]
	var before mrrg.Node
	if len(p) >= 2 {
		before = p[len(p)-2]
	} else {
		before = t.predOf(last)
	}
	src, err := operandFrom(last, before, fu.R, fu.C, fu.T)
	if err != nil {
		return err
	}
	if src.Kind == arch.OpdHold {
		return fmt.Errorf("route: operand cannot be a hold (%v): %w", last, diag.ErrConfigInvalid)
	}
	lane := laneSrcA
	if port == 1 {
		lane = laneSrcB
	}
	t.add(fu, lane, ref, sufResult, 0, src)
	return nil
}

// Replay stamps the template onto the configuration displaced by
// (dt, dr, dc) — folded onto the real PEs on a wrap-around fabric and
// into the configuration period in time. ids resolves the template's
// refs to the node ids of this translate. Every stamp is bounds-checked
// and claims its lane; on a claimed lane a different value, or the same
// value with different contents, is an ErrReplicaConflict.
func (e *Emitter) Replay(t *Template, dt, dr, dc int, ids []int32) error {
	cfg := e.Cfg
	f, ii, lanes := cfg.Fabric, cfg.II, e.lanes()
	// A translate whose box stays on the array folds and checks no stamp.
	inside := f.InBounds(int(t.r0)+dr, int(t.c0)+dc) && f.InBounds(int(t.r1)+dr, int(t.c1)+dc)
	for i := range t.stamps {
		s := &t.stamps[i]
		r, c := int(s.r)+dr, int(s.c)+dc
		if !inside {
			// On a torus the translate of an edge-crossing path re-enters
			// the array; fold it onto the real PEs.
			if r, c = f.WrapCoord(r, c); !f.InBounds(r, c) {
				return fmt.Errorf("route: %s stamp of %s translated to (%d,%d) leaves the %s array: %w",
					e.laneName(int(s.lane)), valueName(ids[s.ref]<<2|s.suf), r, c, f.CGRA, diag.ErrReplicaConflict)
			}
		}
		// Real cycles fold into the configuration period, so replicas of
		// a value at t and t+II collide on the same physical slot.
		real := int(s.t) + dt
		tw := real % ii
		if tw < 0 {
			tw += ii
		}
		val := ids[s.ref]<<2 | s.suf
		in := &cfg.Slots[r][c][tw]
		own := &e.owner[((r*f.Cols+c)*ii+tw)*lanes+int(s.lane)]
		fresh := *own == 0
		if !fresh && *own != val+1 {
			return fmt.Errorf("route: %s @(%d,%d)t%d claimed by %q and %q: %w",
				e.laneName(int(s.lane)), r, c, tw, valueName(*own-1), valueName(val), diag.ErrReplicaConflict)
		}
		*own = val + 1
		// dst is the operand field this lane writes, if it writes one; a
		// re-stamp must find there the contents it would write.
		var dst *arch.Operand
		same := true
		switch lane := int(s.lane); {
		case lane == laneFU:
			if fresh {
				in.Op = ir.OpKind(s.aux)
				e.buf = appendValue(e.buf[:0], val)
				in.Comment = e.intern(e.buf)
			}
			same = in.Op == ir.OpKind(s.aux)
		case lane == laneMemRead:
			if fresh {
				n := e.d.Nodes[val>>2]
				in.MemRead = arch.MemOp{Active: true, Tag: e.elemTag(n)}
				cfg.Loads = append(cfg.Loads, e.ioSpec(n, r, c, tw, real))
			}
		case lane == laneMemWrite:
			if fresh {
				n := e.d.Nodes[ids[s.aux]]
				in.MemWrite.Active, in.MemWrite.Tag = true, e.elemTag(n)
				cfg.Stores = append(cfg.Stores, e.ioSpec(n, r, c, tw, real))
			}
			dst = &in.MemWrite.Src
		case lane == laneSrcA:
			dst = &in.SrcA
		case lane == laneSrcB:
			dst = &in.SrcB
		case lane < e.laneHold(0):
			dst = &in.OutSel[lane-laneOut0]
		case lane < e.laneWrite(0):
			// Register occupancy: the claim is the whole effect.
		case fresh:
			if in.RegWr == nil {
				w := f.RFWriteCap() // room for every write port of the word
				in.RegWr = carve(&e.regWr, w, 256*w)[:0]
			}
			in.RegWr = append(in.RegWr, arch.RegWrite{Reg: lane - e.laneWrite(0), Src: s.src})
		default:
			for _, w := range in.RegWr {
				if w.Reg == lane-e.laneWrite(0) {
					same = w.Src == s.src
				}
			}
		}
		if dst != nil {
			if fresh {
				*dst = s.src
			}
			same = *dst == s.src
		}
		if !same {
			return fmt.Errorf("route: %s @(%d,%d)t%d re-stamped by %q with different contents (%v): %w",
				e.laneName(int(s.lane)), r, c, tw, valueName(val), s.src, diag.ErrReplicaConflict)
		}
	}
	return nil
}

// elemTag renders a memory node's "tensor@i,j" element correlation tag.
func (e *Emitter) elemTag(n *ir.Node) string {
	b := append(e.buf[:0], n.Tensor...)
	b = append(b, '@')
	for i, x := range n.Index {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	e.buf = b
	return e.intern(b)
}

// ioSpec correlates the access stamped at PE (r, c), slot tw, real cycle
// real with memory node n's tensor element.
func (e *Emitter) ioSpec(n *ir.Node, r, c, tw, real int) arch.IOSpec {
	var index []int // nil for a scalar tensor, as a copy always was
	if k := len(n.Index); k > 0 {
		index = carve(&e.index, k, 1024)
		copy(index, n.Index)
	}
	return arch.IOSpec{
		R: r, C: c, Slot: tw, Phase: (real - tw) / e.Cfg.II,
		Tensor: n.Tensor, Index: index,
	}
}

// carve cuts a full slice of n elements off the chunk, starting a new
// chunk of chunkLen when the current one runs out.
func carve[T any](chunk *[]T, n, chunkLen int) []T {
	if len(*chunk) < n {
		*chunk = make([]T, max(chunkLen, n))
	}
	out := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return out
}

// intern returns b as a string in the text chunk. The chunk is
// append-only, so strings cut from it earlier stay valid as it fills.
func (e *Emitter) intern(b []byte) string {
	if e.text.Cap()-e.text.Len() < len(b) {
		e.text.Reset()
		e.text.Grow(max(4096, len(b)))
	}
	start := e.text.Len()
	e.text.Write(b)
	return e.text.String()[start:]
}
