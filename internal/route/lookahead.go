package route

import (
	"math"
	"sync"

	"himap/internal/mrrg"
)

// The A* bound is the exact uncongested cost-to-go in an abstraction of
// mrrg.Succ that keeps time and resource class exact and collapses space
// to the hop distance from the target (the "lookahead map" of FPGA
// routers; the space/time cut is Tirelli & Otoni's, PAPERS.md). A node of
// the abstract graph is (kind, Δcycles to the target, hops to the
// target's PE). An output register's kind records where its link leads:
// one hop closer to the target, as far, or farther — an Out with no link
// counts as farther, whose edges are a superset of its one hold edge.
//
// Every real edge n → m maps to an abstract edge entering m's class at
// its base cost: a link crossing changes HopDist by at most one
// on mesh, diagonal and torus fabrics, and array edges, the routing
// envelope, memory-less PEs and the direction of a target Out only
// remove real edges or targets. The abstract graph is therefore a
// relaxation of the real one, congestion only adds cost, and the table
// is an admissible and consistent bound (DESIGN.md "Router").
const (
	kindSrc = iota // FU and MemRead: a freshly produced value
	kindRFW
	kindReg
	kindRFR
	kindMW
	kindOutCloser // the three Out kinds are consecutive: Same ± 1
	kindOutSame
	kindOutFarther
	numKinds

	// A target's class is the kind it is reached as; every Out kind
	// counts for an Out target (the table does not know its direction).
	numTargetClasses = kindOutCloser + 1
)

// classKind is the kind of a class. Out nodes are split three ways per
// (node, target) by costToGo; kindOutCloser here is the target class of
// an Out target.
var classKind = [mrrg.NumClasses]uint8{
	mrrg.ClassFU:       kindSrc,
	mrrg.ClassOut:      kindOutCloser,
	mrrg.ClassReg:      kindReg,
	mrrg.ClassRFRead:   kindRFR,
	mrrg.ClassRFWrite:  kindRFW,
	mrrg.ClassMemRead:  kindSrc,
	mrrg.ClassMemWrite: kindMW,
}

// laInf marks an abstract node from which the target is unreachable.
const laInf = math.MaxInt32 / 2

// lookahead is the cost-to-go table, in integer deci units:
// ctg[((class·numKinds + kind)·w + Δ)·w + hops], w = depth+1. It is
// immutable once published.
type lookahead struct {
	depth int
	ctg   []int32
}

// buildLookahead fills the table by one reverse-time pass per target
// class. Same-cycle edges stay on one PE (FU → Out/RFW/MW, Reg → RFR,
// RFR → Out/MW), so within a cycle the kinds are filled successors
// first: MW, Out, RFW, RFR, Reg, FU. Everything else (Out → the link's
// far end, Out hold, RFW → Reg, Reg hold) reads the previous pass.
func buildLookahead(depth int) *lookahead {
	w := depth + 1
	la := &lookahead{depth: depth, ctg: make([]int32, numTargetClasses*numKinds*w*w)}
	for i := range la.ctg {
		la.ctg[i] = laInf
	}
	base := func(c mrrg.Class) int32 { return int32(deci(baseCost(c))) }
	bOut, bReg := base(mrrg.ClassOut), base(mrrg.ClassReg)
	bRFR, bRFW, bMW := base(mrrg.ClassRFRead), base(mrrg.ClassRFWrite), base(mrrg.ClassMemWrite)
	add := func(b, v int32) int32 {
		if v >= laInf {
			return laInf
		}
		return b + v
	}
	// arrive[Δ·w + hops]: least cost after a value lands on a PE — enter
	// one of its output registers, its RF write port or its store port.
	arrive := make([]int32, w*w)
	for tc := 0; tc < numTargetClasses; tc++ {
		tab := la.ctg[tc*numKinds*w*w : (tc+1)*numKinds*w*w]
		at := func(k, dt, d int) int32 {
			if dt < 0 || d < 0 || d > dt {
				return laInf // each link crossing takes a cycle
			}
			return tab[(k*w+dt)*w+d]
		}
		arriveAt := func(dt, d int) int32 {
			if d < 0 || d > dt {
				return laInf
			}
			return arrive[dt*w+d]
		}
		for dt := 0; dt <= depth; dt++ {
			for d := 0; d <= dt; d++ {
				here := func(k int) int32 { // the node is the target itself
					if dt == 0 && d == 0 && min(k, kindOutCloser) == tc {
						return 0
					}
					return laInf
				}
				set := func(k int, v int32) int32 {
					tab[(k*w+dt)*w+d] = v
					return v
				}
				mw := set(kindMW, here(kindMW))
				out := int32(laInf) // the cheapest output register to enter here
				for k := kindOutCloser; k <= kindOutFarther; k++ {
					far := d + k - kindOutSame
					v := set(k, min(here(k), arriveAt(dt-1, far), add(bOut, at(k, dt-1, d))))
					if far >= 0 {
						out = min(out, v)
					}
				}
				out = add(bOut, out)
				hold := add(bReg, at(kindReg, dt-1, d))
				rfw := set(kindRFW, min(here(kindRFW), hold))
				rfr := set(kindRFR, min(here(kindRFR), out, add(bMW, mw)))
				set(kindReg, min(here(kindReg), hold, add(bRFR, rfr)))
				arrive[dt*w+d] = min(out, add(bRFW, rfw), add(bMW, mw))
				set(kindSrc, min(here(kindSrc), arrive[dt*w+d]))
			}
		}
	}
	return la
}

// lookaheads holds the one table of the process. The table depends on
// the base costs and nothing else — not the fabric, not II — and MAP()
// opens hundreds of short sessions, so it is shared, not per Session; it
// is replaced, never written, when a search spans more cycles than it
// covers.
var lookaheads struct {
	sync.Mutex
	la *lookahead
}

// lookaheadFor returns the table, covering at least depth cycles.
func lookaheadFor(depth int) *lookahead {
	lookaheads.Lock()
	defer lookaheads.Unlock()
	if la := lookaheads.la; la == nil || la.depth < depth {
		d := 16
		if la != nil {
			d = la.depth
		}
		for d < depth {
			d *= 2
		}
		lookaheads.la = buildLookahead(d)
	}
	return lookaheads.la
}
