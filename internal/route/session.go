// Package route implements negotiated-congestion routing on the implicit
// MRRG: least-cost path search that allows resource oversubscription,
// plus the PathFinder/SPR-style cost escalation loop HiMap's MAP() and
// ROUTE() functions are built on (§V: "All ports are initially assigned
// the same cost. At the end of each iteration, the costs of
// oversubscribed ports are increased ... inspired by SPR").
//
// Searches run in *real* (unwrapped) time so that a route's length equals
// the true producer→consumer latency; occupancy is charged modulo II via
// mrrg.Graph.DenseKey. Search is pruned at the latest target cycle — the
// resource edges are time-monotone, so no useful path extends past it —
// and, because a value changes PE only by crossing one link per cycle,
// confined to the bounding box of the net's seeds grown by that many
// hops (the search window of search.go): a search is indexed, and its
// scratch sized, by what it can reach in time, not by the array.
//
// The search is A* over a Dial-style bucket queue (DESIGN.md "Router"):
//
//   - The bound is the exact uncongested cost-to-go of an abstraction of
//     mrrg.Succ that keeps time and resource class and collapses space to
//     the hop distance from the target (arch.Fabric.HopDist — Manhattan,
//     wrapped Manhattan on a torus, Chebyshev with diagonals), minimized
//     over the targets: one table, shared by every session of the
//     process (lookahead.go). The abstraction is a
//     relaxation of the real graph, so the bound is admissible and
//     consistent, and a held value — most of HiMap's — is found without
//     flooding the window. Nodes from which no target is reachable in
//     time are pruned outright.
//   - Successors are enumerated in index space — slot arithmetic on the
//     popped node's dense index plus the graph's link table — mirroring
//     mrrg.Succ, which stays the reference the map-Dijkstra oracle of
//     the tests enumerates with.
//   - Every cost atom is an exact multiple of 0.1 (the table stores
//     integer deci units), so a frontier entry's f = g+h quantizes
//     exactly into a deci-cost bucket; buckets pop in Dial order and each
//     bucket is a small binary heap ordered by the exact (float cost,
//     RealKey) pair.
//   - Tie-breaking is order-independent: of the predecessors offering a
//     node the same cost the one with the smaller RealKey wins the parent
//     slot, and when the first target pops, its whole bucket is drained
//     before committing so every same-cost parent claim (and every
//     same-cost target) has been seen; the final target is the (cost,
//     RealKey) minimum of the drained hits. The result therefore does not
//     depend on which consistent bound ordered the pops.
//
// Memory discipline: the search inner loop is allocation-free in steady
// state, and a session allocates only what its searches read. A search
// node is 20 bytes of flat scratch arrays over the dense index space of
// the search window — a stamp word (the generation above seen, closed,
// target and owned flags), the tentative cost, the bound in deci units
// and the parent; its RealKey is decoded from the index where a
// tie-break needs it. A search invalidates the previous one's entries by
// bumping the generation, and the arrays grow only when a window
// outgrows them; windows are clipped to the envelope and the seeds, so
// canonical routing's scratch follows the envelope, not the array. The
// bucket queue's per-bucket heaps are value items (no container/heap
// interface boxing) and are themselves generation-stamped. Occupancy is
// a flat array over the modulo key space; history joins it at the first
// BumpHistory that finds congestion. Returned paths are carved from a
// session-owned arena, and nets from session-owned storage: a Net and its
// Paths live until the next Reset, ResetKeepHistory or RipUp, which
// rewind the arena and recycle every net the session handed out.
//
// A session lives for one compile: its owner (the attempt window, one
// sub-mapping computation, an exact or conventional compile) re-targets
// it with Reset for every attempt, leaf and II, so the scratch, the
// bucket heaps, the path arena and the net freelist warmed by one routing
// problem serve the next, and nothing outlives the request. See DESIGN.md
// ("Concurrency model & hot-path memory discipline").
package route

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"himap/internal/mrrg"
)

// Sentinel route failures, errors.Is-able through the wrapped errors
// RouteSink returns (and through the StageErrors of the mappers built on
// this package).
var (
	// ErrNoPath: the search exhausted the reachable sub-graph without
	// touching a target (or had no targets at all).
	ErrNoPath = errors.New("no path")
	// ErrSearchLimit: the search visited more nodes than Session.MaxVisits
	// allows — congestion so severe the search was cut off.
	ErrSearchLimit = errors.New("search limit exceeded")
	// ErrOutsideLive: a search window, or a box a caller is about to read
	// (CheckLive), leaves Session.Live while a live region is set. Nothing
	// was read; the caller re-runs the round on the whole array.
	ErrOutsideLive = errors.New("read outside the live region")
)

// Path is a resource node sequence from a producer to one sink; node 0 is
// the producer's own placement node (FU or memory read port). Times are
// real (unwrapped). A Path RouteSink returns lives in its session's path
// arena: it stays valid until that session's next Reset,
// ResetKeepHistory or RipUp, and its capacity equals its length, so
// appending to it copies instead of overwriting the next path.
type Path []mrrg.Node

// Net is one routed signal: a producer node and a tree of paths to its
// sinks. Paths share resource nodes freely (a net may reuse its own
// nodes at no cost — fanout taps an existing wire). The session that
// started a net owns it: it stays valid until that session's next Reset,
// ResetKeepHistory or RipUp, which recycle its storage for later nets.
type Net struct {
	ID     int
	Src    mrrg.Node
	Paths  []Path
	srcKey uint64    // RealKey(Src)
	keys   []uint64  // RealKeys of list, for O(n) membership on commit
	list   []charged // nodes charged to occupancy (excludes Src)
}

// charged is one node a net holds occupancy on, as its real cycle and
// the part of its dense key that does not depend on the cycle — the
// spatial key (row·Cols + col)·SlotsPerPE + occupancy slot: the node's
// DenseKey is G.TimeBase(t) + spat.
type charged struct {
	t, spat int32
}

// Session tracks resource occupancy and history costs across the nets of
// one mapping attempt. A Session (and its scratch storage) may be reused
// across many routing rounds, and re-targeted by Reset to the graph of
// the next attempt; a zero Session routes nothing until its first Reset.
// It is not safe for concurrent use.
type Session struct {
	G *mrrg.Graph

	// MaxVisits bounds each search. Reset derives the default from the
	// fabric's dense key space (16× NumDenseKeys, floor 4096) so
	// large-fabric searches are not cut off spuriously while small-fabric
	// searches fail fast; overriding the field still works.
	MaxVisits int

	// Envelope confines the search to the PEs it holds; Reset sets the
	// whole array. HiMap's canonical routing narrows it to the
	// spatial envelope that exists for every replica of the route (a
	// class member near the array edge must be able to reuse the
	// translated path). Seeds outside it stay seeds. A search's window is
	// clipped to it and the seeds, so narrowing it shrinks the scratch.
	Envelope Box

	// Live bounds every search window while a live region is set
	// (ResetLive), and must lie inside that region: a window that leaves
	// it fails RouteSink with ErrOutsideLive before the search reads
	// anything. HiMap's canonical routing sets it per class to the
	// class's own box of the region, which also bounds where the class's
	// replicas land. ResetLive and DropLive set the whole array.
	Live Box

	// occ and hist are dense arrays over the modulo occupancy key space
	// (mrrg.Graph.DenseKey) — the negotiated-congestion state. hist is
	// empty, and prices nothing, until the first BumpHistory that finds
	// congestion gives it storage (history); Reset empties it again and
	// keeps the buffer.
	occ    []int32
	hist   []float64
	netSeq int

	// nets are the live nets, in creation order (NewNet, Nets); netFree
	// holds the storage of the nets Reset, ResetKeepHistory and RipUp
	// recycled. A congested attempt re-routes the same net set every
	// round, so the freelist makes rounds after the first allocation-free
	// on the net side.
	nets    []*Net
	netFree []*Net
	// arena holds the nodes of every Path RouteSink returned since the
	// last Reset, ResetKeepHistory or RipUp, which rewind it (carvePath);
	// over is OversubscribedIn's result, valid until its next call, and
	// overKeys its dedup buffer.
	arena    []mrrg.Node
	over     []mrrg.Node
	overKeys []uint64

	// live marks the PEs of the live region ResetLive set, one per PE,
	// and liveBoxes are the boxes it was set from; live is empty while
	// the whole array is live.
	live      []bool
	liveBoxes []Box

	// capTab is mrrg.Graph.Capacity per class, what OversubscribedIn
	// holds occupancy against.
	capTab [mrrg.NumClasses]int32

	// The search's view of the graph, per resource slot of a PE (see
	// slotInfo), with the link table and the slot layout; la is the
	// shared lookahead table (lookahead.go), fetched at the first search
	// and again when a search spans more cycles than it covers.
	slotTab []slotInfo
	links   []int32
	lay     struct{ nd, rfw, rfr, mw, reg int }
	la      *lookahead

	// closedNodes counts the nodes the searches of this session closed —
	// the work a bound saves (TestLongHoldVisitBudget).
	closedNodes int

	sc scratch
}

// Box is an inclusive rectangle of PEs: rows R0..R1, columns C0..C1.
type Box struct{ R0, R1, C0, C1 int }

// Holds reports whether PE (r, c) lies in the box.
func (b Box) Holds(r, c int) bool { return r >= b.R0 && r <= b.R1 && c >= b.C0 && c <= b.C1 }

// Covers reports whether every PE of o lies in the box.
func (b Box) Covers(o Box) bool { return o.R0 >= b.R0 && o.R1 <= b.R1 && o.C0 >= b.C0 && o.C1 <= b.C1 }

// Meets reports whether the two boxes share a PE.
func (b Box) Meets(o Box) bool { return o.R0 <= b.R1 && o.R1 >= b.R0 && o.C0 <= b.C1 && o.C1 >= b.C0 }

// slotInfo is what the search needs of one resource slot of a PE (the
// dense slot space of mrrg.Graph.SlotIndex), so that relaxing an edge
// in index space needs no mrrg.Node: the slot's class and index, the
// class's base cost and capacity (baseCost, mrrg.Graph.Capacity), the
// slot's RealKey offset within its (cycle, PE), its occupancy slot — the
// slot itself, except on shared-bus fabrics, where every Out direction
// charges direction 0's — and its lookahead kind.
type slotInfo struct {
	base  float64
	key   uint64
	cap   int32
	occ   int32
	class mrrg.Class
	idx   uint8
	kind  uint8
}

// defaultMaxVisits scales the per-search visit budget with the dense key
// space: every search closes a node at most once (up to rare ulp-scale
// reopenings), and a search spans a small multiple of II real cycles, so
// 16× the modulo key space is generous on every fabric while still
// cutting off runaway congestion quickly on small arrays.
func defaultMaxVisits(denseKeys int) int {
	v := 16 * denseKeys
	if v < 4096 {
		v = 4096
	}
	return v
}

// NewSession creates a routing session over g with the default cost
// parameters: new(Session).Reset(g). A compile creates one per routing
// owner and re-targets it with Reset rather than calling NewSession per
// attempt.
func NewSession(g *mrrg.Graph) *Session { return new(Session).Reset(g) }

// Reset re-targets the session to g and returns it to the state a fresh
// session over g starts in: no occupancy, no history, net numbering and
// the closed-node count at zero, and the default MaxVisits and Envelope
// for g. The graph's view (slot table, layout, capacities, link table)
// is rebuilt. Everything else is kept for reuse: occupancy storage is
// cleared in place when its capacity covers g's key space, history
// storage is emptied (the first bump that finds congestion re-zeroes
// it), the path arena is rewound and every live net recycled (every Net
// and Path handed out before is invalid), and the search scratch, the
// bucket heaps, the net freelist and the lookahead table carry over — a
// reset session routes exactly as a fresh one, without re-growing them.
func (s *Session) Reset(g *mrrg.Graph) *Session {
	s.ResetLive(g, nil)
	return s
}

// ResetLive re-targets the session to g as Reset does, with the PEs of
// boxes as its live region, and returns the live PE count. Only the
// region's occupancy is cleared; elsewhere it goes stale, and stays so:
// ResetKeepHistory clears, and ChargeShifted and ReserveLive charge, only
// nodes on live PEs, and history storage is zeroed only on them, so the
// occupancy and history of a live PE are what they would be with the
// whole array kept. Live starts as the whole array. Where boxes is empty
// or covers the array there is no region, and this is Reset.
func (s *Session) ResetLive(g *mrrg.Graph, boxes []Box) int {
	n := g.NumDenseKeys()
	s.G = g
	s.MaxVisits = defaultMaxVisits(n)
	s.Envelope = Box{R0: 0, R1: g.Fab.Rows - 1, C0: 0, C1: g.Fab.Cols - 1}
	s.Live = s.Envelope
	s.netSeq, s.closedNodes = 0, 0
	s.recycle()
	pes := s.markLive(boxes)
	if len(s.live) == 0 {
		s.occ = zeroed(s.occ, n)
	} else {
		s.occ = resized(s.occ, n)
		clearLive(s, s.occ)
	}
	s.hist = s.hist[:0]

	s.links = g.LinkTable()
	s.lay.nd = g.NumDirs()
	s.lay.rfw = g.SlotIndex(mrrg.ClassRFWrite, 0)
	s.lay.rfr = g.SlotIndex(mrrg.ClassRFRead, 0)
	s.lay.mw = g.SlotIndex(mrrg.ClassMemWrite, 0)
	s.lay.reg = g.SlotIndex(mrrg.ClassReg, 0)
	for ci := range s.capTab {
		s.capTab[ci] = int32(g.Capacity(mrrg.Class(ci)))
	}
	s.slotTab = s.slotTab[:0]
	for slot := 0; slot < g.SlotsPerPE(); slot++ {
		cl, idx := g.SlotResource(slot)
		occ := slot
		if cl == mrrg.ClassOut && g.SharedOut() {
			occ = g.SlotIndex(mrrg.ClassOut, 0) // one bus slot for every direction
		}
		kind := classKind[cl]
		if cl == mrrg.ClassOut {
			kind = kindOutFarther // an Out with no link; costToGo splits the rest per target
		}
		s.slotTab = append(s.slotTab, slotInfo{
			base: baseCost(cl), cap: s.capTab[cl], occ: int32(occ), class: cl, idx: idx, kind: kind,
			key: mrrg.RealKey(mrrg.Node{Class: cl, Idx: idx}) - keyOrigin,
		})
	}
	return pes
}

// markLive makes the PEs of boxes the live region and returns its PE
// count; no boxes, or boxes that cover the array, leave none.
func (s *Session) markLive(boxes []Box) int {
	f := &s.G.Fab
	s.live = s.live[:0]
	if len(boxes) == 0 {
		return f.NumPEs()
	}
	s.live = zeroed(s.live, f.NumPEs())
	s.liveBoxes = append(s.liveBoxes[:0], boxes...)
	n := 0
	for _, b := range boxes {
		for r := b.R0; r <= b.R1; r++ {
			for c := b.C0; c <= b.C1; c++ {
				if pe := r*f.Cols + c; !s.live[pe] {
					s.live[pe] = true
					n++
				}
			}
		}
	}
	if n == f.NumPEs() {
		s.live = s.live[:0]
	}
	return n
}

// DropLive ends the live region: the whole array's history is exact at
// once, and its occupancy from the next ResetKeepHistory on. Live becomes
// the whole array.
func (s *Session) DropLive() {
	if len(s.live) == 0 {
		return
	}
	if len(s.hist) > 0 { // zeroed on the live PEs alone (history)
		slots := s.G.SlotsPerPE()
		for t := 0; t < s.G.II; t++ {
			tb := s.G.TimeBase(t)
			for pe, on := range s.live {
				if !on {
					clear(s.hist[tb+pe*slots : tb+(pe+1)*slots])
				}
			}
		}
	}
	s.live = s.live[:0]
	s.Live = Box{R0: 0, R1: s.G.Fab.Rows - 1, C0: 0, C1: s.G.Fab.Cols - 1}
}

// CheckLive returns ErrOutsideLive when a live region is set and b
// leaves Live: what a caller must check before it reads the occupancy of
// b's PEs.
func (s *Session) CheckLive(b Box) error {
	if len(s.live) > 0 && !s.Live.Covers(b) {
		return fmt.Errorf("route: rows %d-%d, columns %d-%d: %w", b.R0, b.R1, b.C0, b.C1, ErrOutsideLive)
	}
	return nil
}

// clearLive zeroes buf, an array over the dense key space, on the live
// region's PEs.
func clearLive[T int32 | float64](s *Session, buf []T) {
	cols, slots := s.G.Fab.Cols, s.G.SlotsPerPE()
	for t := 0; t < s.G.II; t++ {
		tb := s.G.TimeBase(t)
		for _, b := range s.liveBoxes {
			for r := b.R0; r <= b.R1; r++ {
				clear(buf[tb+(r*cols+b.C0)*slots : tb+(r*cols+b.C1+1)*slots])
			}
		}
	}
}

// resized returns a slice of length n, reusing buf's storage, contents
// and all, when its capacity suffices.
func resized[T int32 | float64](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed returns a cleared slice of length n, reusing buf's storage when
// its capacity suffices.
func zeroed[T bool | int32 | float64](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// ResetKeepHistory clears all occupancy and nets but keeps the
// accumulated history costs — the state carried between negotiated
// congestion rounds when a mapping attempt is rebuilt from scratch.
// The occupancy storage is zeroed in place, the live region's alone while
// one is set, the path arena rewound and every live net recycled: the
// dropped round's nets and paths are invalid.
func (s *Session) ResetKeepHistory() {
	if len(s.live) == 0 {
		clear(s.occ)
	} else {
		clearLive(s, s.occ)
	}
	s.netSeq = 0
	s.recycle()
}

// RipUp releases every live net's occupancy and recycles the nets, as
// ResetKeepHistory does, but keeps what Reserve charged — the placements
// stay while every wire is re-routed — and the net numbering, so the
// next net's ID follows the last one's. The nets and paths handed out
// before are invalid.
func (s *Session) RipUp() {
	for _, net := range s.nets {
		s.Release(net)
	}
	s.recycle()
}

// recycle returns every live net to the freelist and rewinds the path
// arena. A net's lists and Paths header are kept for reuse; its path
// nodes belong to the arena.
func (s *Session) recycle() {
	for _, net := range s.nets {
		net.keys = net.keys[:0]
		net.list = net.list[:0]
		net.Paths = net.Paths[:0]
	}
	s.netFree = append(s.netFree, s.nets...)
	s.nets = s.nets[:0]
	s.arena = s.arena[:0]
}

// Nets returns the live nets — every net NewNet started since the last
// Reset, ResetKeepHistory or RipUp — in creation order: what BumpHistory
// and OversubscribedIn check after a round. The slice is the session's;
// it is valid until the next NewNet, Reset, ResetKeepHistory or RipUp.
func (s *Session) Nets() []*Net { return s.nets }

// carvePath cuts a Path of n nodes, capacity n, from the arena. A full
// arena is replaced by one twice its size (the old one lives on in its
// paths), so it stays within twice the nodes of the largest round.
func (s *Session) carvePath(n int) Path {
	k := len(s.arena)
	if cap(s.arena)-k < n {
		s.arena, k = make([]mrrg.Node, 0, max(2*cap(s.arena), n)), 0
	}
	s.arena = s.arena[:k+n]
	return Path(s.arena[k : k+n : k+n])
}

// presFac scales the penalty for entering an oversubscribed node;
// histBump is added to a node's history cost each escalation round.
const presFac, histBump = 2.0, 3.0

// baseCost is the intrinsic cost of occupying one resource node. Every
// value is an exact multiple of 0.1 — together with the integral presFac
// and histBump multiples this keeps all accumulated costs on the
// deci-unit grid the bucket queue quantizes into, and the lookahead
// table (lookahead.go) holds them as integers.
func baseCost(c mrrg.Class) float64 {
	switch c {
	case mrrg.ClassOut:
		return 1.0
	case mrrg.ClassReg:
		return 0.6
	case mrrg.ClassRFRead, mrrg.ClassRFWrite:
		return 0.3
	case mrrg.ClassMemRead, mrrg.ClassMemWrite:
		return 1.0
	default:
		return 1.0
	}
}

// price is the cost of entering a resource of the given base cost and
// capacity at dense occupancy key: the base, scaled by the present-
// sharing penalty once the entry would oversubscribe it, plus the
// history cost, if any. relax calls it with the slot's table entry and a
// key derived from the search index.
func (s *Session) price(base float64, capa int32, key int) float64 {
	over := int(s.occ[key]) + 1 - int(capa)
	pen := 1.0
	if over > 0 {
		pen = 1.0 + float64(over)*presFac
	}
	if len(s.hist) == 0 {
		return base * pen
	}
	return base*pen + s.hist[key]
}

// Reserve marks a placement node (FU slot, memory port) occupied outside
// any net, e.g. an operation placement. It returns the new occupancy.
func (s *Session) Reserve(n mrrg.Node) int {
	k := s.G.DenseKey(n)
	s.occ[k]++
	return int(s.occ[k])
}

// ReserveLive reserves n if its PE is live, and reports whether it did.
func (s *Session) ReserveLive(n mrrg.Node) bool {
	if len(s.live) > 0 && !s.live[n.R*s.G.Fab.Cols+n.C] {
		return false
	}
	s.Reserve(n)
	return true
}

// Unreserve releases a Reserve.
func (s *Session) Unreserve(n mrrg.Node) {
	s.occ[s.G.DenseKey(n)]--
}

// Occ returns the current occupancy of a node (modulo II).
func (s *Session) Occ(n mrrg.Node) int { return int(s.occ[s.G.DenseKey(n)]) }

// history returns the history array, allocating it — or re-zeroing the
// buffer Reset emptied, on the live region alone while one is set — on
// first use.
func (s *Session) history() []float64 {
	if len(s.hist) > 0 {
		return s.hist
	}
	if n := s.G.NumDenseKeys(); len(s.live) == 0 {
		s.hist = zeroed(s.hist, n)
	} else {
		s.hist = resized(s.hist, n)
		clearLive(s, s.hist)
	}
	return s.hist
}

// NewNet starts a net at the producer's placement node and registers it
// among the live nets. The source node's occupancy is the producer's own
// (via Reserve); the net reuses it freely. Storage comes from the
// freelist when available.
func (s *Session) NewNet(src mrrg.Node) *Net {
	s.netSeq++
	var net *Net
	if k := len(s.netFree); k > 0 {
		net = s.netFree[k-1]
		s.netFree = s.netFree[:k-1]
	} else {
		net = new(Net)
	}
	net.ID, net.Src, net.srcKey = s.netSeq, src, mrrg.RealKey(src)
	s.nets = append(s.nets, net)
	return net
}

// commit charges newly used path nodes to occupancy and records them in
// the net.
func (s *Session) commit(net *Net, path Path) {
	for _, n := range path {
		rk := mrrg.RealKey(n)
		if rk == net.srcKey || containsKey(net.keys, rk) {
			continue
		}
		k := s.G.DenseKey(n)
		net.keys = append(net.keys, rk)
		net.list = append(net.list, charged{int32(n.T), int32(k - s.G.TimeBase(n.T))})
		s.occ[k]++
	}
	net.Paths = append(net.Paths, path)
}

// containsKey is a linear membership scan — net node lists are short
// (bounded by the net's total path length), so this beats a hash map.
func containsKey(keys []uint64, k uint64) bool {
	for _, have := range keys {
		if have == k {
			return true
		}
	}
	return false
}

// Release rips up an entire net, returning its resources.
func (s *Session) Release(net *Net) {
	for _, ch := range net.list {
		s.occ[s.G.TimeBase(int(ch.t))+int(ch.spat)]--
	}
	net.keys = net.keys[:0]
	net.list = net.list[:0]
	net.Paths = nil
}

// ChargeShifted charges a translated copy of the net's resources to the
// session occupancy — used when a canonical route is replicated across
// iteration clusters so that congestion reflects all replicas. A dense
// key is linear in (row, column) within a cycle, so the copy of a node
// sits a fixed offset from the node's own spatial key in the shifted
// cycle's block: one WrapTime per node, not a DenseKey. On a wrap-around
// topology a shifted coordinate may cross the seam, so the PE is taken
// back out of the spatial key and folded. While a live region is set,
// only the nodes that land on live PEs are charged. It returns the
// number of nodes charged.
func (s *Session) ChargeShifted(net *Net, dt, dr, dc int) int {
	f := &s.G.Fab
	slots := s.G.SlotsPerPE()
	if !f.Topology.Wraps() {
		shift := (dr*f.Cols + dc) * slots
		n := 0
		for _, ch := range net.list {
			if k := int(ch.spat) + shift; len(s.live) == 0 || s.live[k/slots] {
				s.occ[s.G.TimeBase(int(ch.t)+dt)+k]++
				n++
			}
		}
		return n
	}
	n := 0
	for _, ch := range net.list {
		pe, slot := int(ch.spat)/slots, int(ch.spat)%slots
		r, c := f.WrapCoord(pe/f.Cols+dr, pe%f.Cols+dc)
		if pe = r*f.Cols + c; len(s.live) == 0 || s.live[pe] {
			s.occ[s.G.TimeBase(int(ch.t)+dt)+pe*slots+slot]++
			n++
		}
	}
	return n
}

// OversubscribedIn returns the nodes of the given nets whose occupancy
// exceeds capacity, one per dense key, in the order the nets' paths
// first reach them. It collects only the nodes over capacity and drops
// repeats from that short list by sorting (key, position) pairs, so it
// needs no storage over the key space. The result is in a buffer the
// session owns, valid until the next OversubscribedIn or BumpHistory
// call.
func (s *Session) OversubscribedIn(nets []*Net) []mrrg.Node {
	out, kp := s.over[:0], s.overKeys[:0]
	for _, net := range nets {
		for _, p := range net.Paths {
			for _, n := range p {
				if k := s.G.DenseKey(n); int(s.occ[k]) > int(s.capTab[n.Class]) {
					kp = append(kp, uint64(k)<<32|uint64(len(out)))
					out = append(out, n)
				}
			}
		}
	}
	// Each key's first position, then those positions in order.
	slices.Sort(kp)
	first, prev := kp[:0], uint64(math.MaxUint64)
	for _, e := range kp {
		if e>>32 != prev {
			prev = e >> 32
			first = append(first, e&math.MaxUint32)
		}
	}
	slices.Sort(first)
	for i, pos := range first {
		out[i] = out[pos]
	}
	s.over, s.overKeys = out[:len(first)], kp
	return s.over
}

// BumpHistory raises the history cost of every oversubscribed node among
// the given nets and returns those nodes, in OversubscribedIn's buffer:
// valid until the next call of either. An empty return means the
// routing is congestion-free (§V's success condition); the first
// non-empty one gives the session its history storage.
func (s *Session) BumpHistory(nets []*Net) []mrrg.Node {
	over := s.OversubscribedIn(nets)
	if len(over) == 0 {
		return over
	}
	hist := s.history()
	for _, n := range over {
		hist[s.G.DenseKey(n)] += histBump
	}
	return over
}
