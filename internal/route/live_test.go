package route

import (
	"errors"
	"slices"
	"testing"

	"himap/internal/arch"
	"himap/internal/mrrg"
)

// TestLiveRegion holds a session with a live region to one that keeps the
// whole array, as HiMap's rounds use them. Both start from storage a
// congested whole-array attempt left dirty; then both run the same two
// rounds (reservations, a routed net, shifted charges of it, a history
// bump, ResetKeepHistory). On every live PE the occupancy and history must
// match, the charge and reserve counts must be the live nodes', and
// nothing outside the region may be written. A window equal to Live
// routes; one PE narrower fails with ErrOutsideLive before it reads or
// charges anything. DropLive must make the history exact everywhere at
// once, and boxes that cover the array must leave no region.
func TestLiveRegion(t *testing.T) {
	g := mrrg.New(arch.DefaultFabric(12, 12), 4)
	boxes := []Box{{R0: 1, R1: 7, C0: 1, C1: 7}, {R0: 3, R1: 5, C0: 6, C1: 10}, {R0: 9, R1: 11, C0: 0, C1: 2}}
	isLive := func(r, c int) bool {
		return slices.ContainsFunc(boxes, func(b Box) bool { return b.Holds(r, c) })
	}
	livePEs := 0
	for r := 0; r < 12; r++ {
		for c := 0; c < 12; c++ {
			if isLive(r, c) {
				livePEs++
			}
		}
	}

	// Dirty storage: every key occupied, history on every key of a net.
	live := new(Session).Reset(g)
	for k := range live.occ {
		live.occ[k] = 3
	}
	dirty := live.NewNet(fu(0, 0, 0))
	if _, _, err := live.RouteSink(dirty, g.OperandTargets(6, 2, 3)); err != nil {
		t.Fatal(err)
	}
	live.BumpHistory(live.Nets())
	stale := slices.Clone(live.occ)

	if got := live.ResetLive(g, boxes); got != livePEs {
		t.Fatalf("ResetLive reports %d live PEs, want %d", got, livePEs)
	}
	stride := g.Fab.NumPEs() * g.SlotsPerPE() // dense keys per cycle
	for k, o := range live.occ {
		pe, want := k%stride/g.SlotsPerPE(), stale[k]
		if isLive(pe/12, pe%12) {
			want = 0
		}
		if o != want {
			t.Fatalf("ResetLive left key %d of PE %d at %d, want %d", k, pe, o, want)
		}
	}
	whole := NewSession(g)
	src := fu(0, 4, 4)
	targets := g.OperandTargets(2, 4, 5)
	probe := live.NewNet(src)
	w := live.searchWindow(probe, targets)
	win := Box{R0: w.r0, R1: w.r0 + w.rows - 1, C0: w.c0, C1: w.c0 + w.cols - 1}
	live.ResetKeepHistory()

	fixed := []mrrg.Node{src, fu(1, 4, 6), fu(2, 10, 1), fu(0, 0, 11), fu(3, 8, 8)}
	// The unshifted copy oversubscribes every node of the net, so each
	// round bumps history.
	shifts := [][3]int{{0, 0, 0}, {0, 0, 3}, {1, 5, -3}, {2, -3, 5}, {0, 6, 6}}
	for round := 0; round < 2; round++ {
		live.ResetKeepHistory()
		whole.ResetKeepHistory()
		for _, n := range fixed {
			whole.Reserve(n)
			if got, want := live.ReserveLive(n), isLive(n.R, n.C); got != want {
				t.Fatalf("round %d: ReserveLive(%v) = %v, want %v", round, n, got, want)
			}
		}
		live.Live = win
		ln, wn := live.NewNet(src), whole.NewNet(src)
		lp, _, lerr := live.RouteSink(ln, targets)
		wp, _, werr := whole.RouteSink(wn, targets)
		if lerr != nil || werr != nil || !slices.Equal(lp, wp) {
			t.Fatalf("round %d: a window equal to Live routed %v (%v), the whole array %v (%v)", round, lp, lerr, wp, werr)
		}
		for _, sh := range shifts {
			want := 0
			for _, ch := range ln.list {
				pe := int(ch.spat) / g.SlotsPerPE()
				if isLive(pe/12+sh[1], pe%12+sh[2]) {
					want++
				}
			}
			whole.ChargeShifted(wn, sh[0], sh[1], sh[2])
			if got := live.ChargeShifted(ln, sh[0], sh[1], sh[2]); got != want {
				t.Fatalf("round %d: ChargeShifted by %v charged %d nodes, %d of them are live", round, sh, got, want)
			}
		}
		if len(live.BumpHistory(live.Nets())) == 0 || len(whole.BumpHistory(whole.Nets())) == 0 {
			t.Fatalf("round %d bumped no history", round)
		}
	}
	occHist := func(s *Session, k int) (int32, float64) {
		if len(s.hist) == 0 {
			return s.occ[k], 0
		}
		return s.occ[k], s.hist[k]
	}
	check := func(what string, everywhere bool) {
		t.Helper()
		for tt := 0; tt < g.II; tt++ {
			for r := 0; r < 12; r++ {
				for c := 0; c < 12; c++ {
					for slot := 0; slot < g.SlotsPerPE(); slot++ {
						cl, idx := g.SlotResource(slot)
						k := g.DenseKey(mrrg.Node{T: tt, R: r, C: c, Class: cl, Idx: idx})
						lo, lh := occHist(live, k)
						wo, wh := occHist(whole, k)
						switch {
						case isLive(r, c) || everywhere:
							if lo != wo || lh != wh {
								t.Fatalf("%s: key %d at (%d,%d) t%d: occupancy %d history %v, the whole array's %d %v", what, k, r, c, tt, lo, lh, wo, wh)
							}
						case lo != stale[k]:
							t.Fatalf("%s: key %d at (%d,%d) outside the region written: %d, was %d", what, k, r, c, lo, stale[k])
						}
					}
				}
			}
		}
	}
	check("two rounds", false)

	// The guard: one PE narrower on any side, and the search reads nothing.
	for side := 0; side < 4; side++ {
		narrow := win
		switch side {
		case 0:
			narrow.R0++
		case 1:
			narrow.R1--
		case 2:
			narrow.C0++
		case 3:
			narrow.C1--
		}
		live.Live = narrow
		before := slices.Clone(live.occ)
		net := live.NewNet(src)
		if _, _, err := live.RouteSink(net, targets); !errors.Is(err, ErrOutsideLive) {
			t.Fatalf("a window one PE wider than Live (side %d): err = %v, want ErrOutsideLive", side, err)
		}
		if len(net.Paths) != 0 || !slices.Equal(before, live.occ) {
			t.Fatalf("side %d: the refused search charged occupancy or kept a path", side)
		}
		if live.CheckLive(win) == nil || live.CheckLive(narrow) != nil {
			t.Fatalf("side %d: CheckLive accepts %v or refuses %v under Live %v", side, win, narrow, narrow)
		}
	}

	// DropLive: the history is the whole array's at once; the occupancy
	// from the next ResetKeepHistory on, with charges landing everywhere.
	live.DropLive()
	live.DropLive() // no region left: nothing to do
	if live.Live != whole.Envelope || live.CheckLive(Box{R0: 0, R1: 11, C0: 0, C1: 11}) != nil {
		t.Fatalf("after DropLive, Live is %v", live.Live)
	}
	live.ResetKeepHistory()
	whole.ResetKeepHistory()
	ln, wn := live.NewNet(src), whole.NewNet(src)
	for _, s := range []struct {
		ses *Session
		net *Net
	}{{live, ln}, {whole, wn}} {
		if _, _, err := s.ses.RouteSink(s.net, targets); err != nil {
			t.Fatal(err)
		}
		for _, sh := range shifts {
			if got := s.ses.ChargeShifted(s.net, sh[0], sh[1], sh[2]); got != len(s.net.list) {
				t.Fatalf("after DropLive, ChargeShifted charged %d of %d nodes", got, len(s.net.list))
			}
		}
	}
	check("after DropLive", true)

	every := []Box{{R0: 0, R1: 5, C0: 0, C1: 11}, {R0: 4, R1: 11, C0: 0, C1: 11}}
	if got := live.ResetLive(g, every); got != g.Fab.NumPEs() || len(live.live) != 0 || !live.ReserveLive(fu(0, 0, 0)) {
		t.Fatalf("boxes covering the array: %d live PEs, region set %v", got, len(live.live) != 0)
	}
}
