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
// state. All per-search state (dist, parent, closed, bound, target and
// ownership marks, hop distances) lives in flat generation-stamped
// scratch arrays indexed by dense packed node keys of the search window; a search
// invalidates the previous search's entries by bumping a generation
// counter instead of clearing or reallocating, and the arrays grow only
// when a window is larger than any before it in the session. The bucket
// queue's per-bucket heaps are value items (no container/heap interface
// boxing) and are themselves generation-stamped. Occupancy and history
// costs are flat arrays over the modulo key space, so pricing a relaxed
// edge is two array loads.
//
// A session lives for one compile: its owner (a HiMap wave slot, one
// sub-mapping computation, an exact or conventional compile) re-targets
// it with Reset for every attempt, leaf and II, so the scratch, the
// bucket heaps and the net freelist warmed by one routing problem serve
// the next, and nothing outlives the request. See DESIGN.md
// ("Concurrency model & hot-path memory discipline").
package route

import (
	"errors"

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
)

// Path is a resource node sequence from a producer to one sink; node 0 is
// the producer's own placement node (FU or memory read port). Times are
// real (unwrapped).
type Path []mrrg.Node

// Net is one routed signal: a producer node and a tree of paths to its
// sinks. Paths share resource nodes freely (a net may reuse its own
// nodes at no cost — fanout taps an existing wire).
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

// Nodes reports the set of real-keyed resource nodes the net occupies.
func (n *Net) Nodes() map[uint64]bool {
	m := make(map[uint64]bool, len(n.keys)+1)
	m[n.srcKey] = true
	for _, k := range n.keys {
		m[k] = true
	}
	return m
}

// Session tracks resource occupancy and history costs across the nets of
// one mapping attempt. A Session (and its scratch storage) may be reused
// across many routing rounds, and re-targeted by Reset to the graph of
// the next attempt; a zero Session routes nothing until its first Reset.
// It is not safe for concurrent use.
type Session struct {
	G *mrrg.Graph

	// PresFac scales the penalty for entering an oversubscribed node;
	// HistBump is added to a node's history cost each escalation round.
	PresFac  float64
	HistBump float64
	// MaxVisits bounds each search. Reset derives the default from the
	// fabric's dense key space (16× NumDenseKeys, floor 4096) so
	// large-fabric searches are not cut off spuriously while small-fabric
	// searches fail fast; overriding the field still works.
	MaxVisits int

	// Envelope confines the search to the PEs it holds; Reset sets the
	// whole array. HiMap's canonical routing narrows it to the
	// spatial envelope that exists for every replica of the route (a
	// class member near the array edge must be able to reuse the
	// translated path). Seeds outside it stay seeds.
	Envelope Box

	// occ and hist are dense arrays over the modulo occupancy key space
	// (mrrg.Graph.DenseKey) — the negotiated-congestion state.
	occ    []int32
	hist   []float64
	netSeq int

	// mark/markGen is generation-stamped dedup scratch for
	// OversubscribedIn (avoids a per-call hash map). Reset keeps the
	// generation running, so stamps written for an earlier graph stay
	// stale.
	mark    []uint32
	markGen uint32

	// netFree recycles Net storage from discarded routing rounds (see
	// FreeNet); a congested attempt re-routes the same net set every
	// round, so the freelist makes rounds after the first allocation-free
	// on the net side.
	netFree []*Net

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
// the closed-node count at zero, and the default PresFac, HistBump,
// MaxVisits and Envelope for g. The graph's view (slot table, layout,
// capacities, link table) is rebuilt. Everything else is kept for reuse:
// occupancy, history and mark storage is cleared in place when its
// capacity covers g's key space, and the search scratch, the bucket
// heaps, the net freelist and the lookahead table carry over — a reset
// session routes exactly as a fresh one, without re-growing them.
func (s *Session) Reset(g *mrrg.Graph) *Session {
	n := g.NumDenseKeys()
	s.G = g
	s.PresFac, s.HistBump = 2.0, 3.0
	s.MaxVisits = defaultMaxVisits(n)
	s.Envelope = Box{R0: 0, R1: g.Fab.Rows - 1, C0: 0, C1: g.Fab.Cols - 1}
	s.netSeq, s.closedNodes = 0, 0
	s.occ = zeroed(s.occ, n)
	s.hist = zeroed(s.hist, n)
	if cap(s.mark) < n {
		s.mark = make([]uint32, n) // zero never equals a running markGen
	} else {
		s.mark = s.mark[:n] // stale stamps are all below markGen
	}

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
	return s
}

// zeroed returns a cleared slice of length n, reusing buf's storage when
// its capacity suffices.
func zeroed[T int32 | float64](buf []T, n int) []T {
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
// The occupancy storage is zeroed in place, not reallocated.
func (s *Session) ResetKeepHistory() {
	clear(s.occ)
	s.netSeq = 0
}

// baseCost is the intrinsic cost of occupying one resource node. Every
// value is an exact multiple of 0.1 — together with integral PresFac and
// HistBump multiples this keeps all accumulated costs on the deci-unit
// grid the bucket queue quantizes into, and the lookahead table
// (lookahead.go) holds them as integers.
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
// history cost. relax calls it with the slot's table entry and a key
// derived from the search index.
func (s *Session) price(base float64, capa int32, key int) float64 {
	over := int(s.occ[key]) + 1 - int(capa)
	pen := 1.0
	if over > 0 {
		pen = 1.0 + float64(over)*s.PresFac
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

// Unreserve releases a Reserve.
func (s *Session) Unreserve(n mrrg.Node) {
	s.occ[s.G.DenseKey(n)]--
}

// Occ returns the current occupancy of a node (modulo II).
func (s *Session) Occ(n mrrg.Node) int { return int(s.occ[s.G.DenseKey(n)]) }

// Hist returns the accumulated history cost of a node (for tests).
func (s *Session) Hist(n mrrg.Node) float64 { return s.hist[s.G.DenseKey(n)] }

// NewNet starts a net at the producer's placement node. The source node's
// occupancy is the producer's own (via Reserve); the net reuses it freely.
// Storage comes from the FreeNet freelist when available.
func (s *Session) NewNet(src mrrg.Node) *Net {
	s.netSeq++
	if k := len(s.netFree); k > 0 {
		net := s.netFree[k-1]
		s.netFree = s.netFree[:k-1]
		net.ID, net.Src, net.srcKey = s.netSeq, src, mrrg.RealKey(src)
		return net
	}
	return &Net{
		ID:     s.netSeq,
		Src:    src,
		srcKey: mrrg.RealKey(src),
	}
}

// FreeNet returns a net whose plan has been discarded (a failed
// congestion round) to the session freelist for NewNet to reuse. The
// caller must hold no references to the net afterwards, and the net's
// occupancy charges must already be gone (FreeNet does not release
// them — after ResetKeepHistory there is nothing left to release).
// Path storage is NOT recycled: committed Path slices may outlive the
// net in the caller's plan metadata; only the headers array is reused.
func (s *Session) FreeNet(net *Net) {
	net.keys = net.keys[:0]
	net.list = net.list[:0]
	net.Paths = net.Paths[:0]
	s.netFree = append(s.netFree, net)
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
// back out of the spatial key and folded.
func (s *Session) ChargeShifted(net *Net, dt, dr, dc int) {
	f := &s.G.Fab
	slots := s.G.SlotsPerPE()
	if !f.Topology.Wraps() {
		shift := (dr*f.Cols + dc) * slots
		for _, ch := range net.list {
			s.occ[s.G.TimeBase(int(ch.t)+dt)+int(ch.spat)+shift]++
		}
		return
	}
	for _, ch := range net.list {
		pe, slot := int(ch.spat)/slots, int(ch.spat)%slots
		r, c := f.WrapCoord(pe/f.Cols+dr, pe%f.Cols+dc)
		s.occ[s.G.TimeBase(int(ch.t)+dt)+(r*f.Cols+c)*slots+slot]++
	}
}

// OversubscribedIn returns the nodes of the given nets whose occupancy
// exceeds capacity.
func (s *Session) OversubscribedIn(nets []*Net) []mrrg.Node {
	s.markGen++
	if s.markGen == 0 {
		clear(s.mark[:cap(s.mark)]) // Reset may re-slice over stamps beyond len
		s.markGen = 1
	}
	var out []mrrg.Node
	for _, net := range nets {
		for _, p := range net.Paths {
			for _, n := range p {
				k := s.G.DenseKey(n)
				if s.mark[k] == s.markGen {
					continue
				}
				s.mark[k] = s.markGen
				if int(s.occ[k]) > int(s.capTab[n.Class]) {
					out = append(out, n)
				}
			}
		}
	}
	return out
}

// BumpHistory raises the history cost of every oversubscribed node among
// the given nets and returns those nodes. An empty return means the
// routing is congestion-free (§V's success condition).
func (s *Session) BumpHistory(nets []*Net) []mrrg.Node {
	over := s.OversubscribedIn(nets)
	for _, n := range over {
		s.hist[s.G.DenseKey(n)] += s.HistBump
	}
	return over
}
