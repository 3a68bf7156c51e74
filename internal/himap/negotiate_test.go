package himap

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/kernel"
	"himap/internal/mrrg"
	"himap/internal/route"
)

// narrowBICGLayout is BICG on a 4x4 narrow-RF fabric: its first classes
// oversubscribe register-file ports in every round, so negotiation runs
// to the round cap.
func narrowBICGLayout(t *testing.T) *layout {
	cg := arch.DefaultFabric(4, 4)
	cg.Bandwidth = arch.BWNarrowRF
	return bicgLayoutOn(t, cg)
}

// breakLastClass schedules a consumer cluster of the last class of l
// that has one a period before its producer — the value would have to
// arrive before it exists — and returns that class.
func breakLastClass(t *testing.T, l *layout) int { return moveLastConsumer(t, l, -1) }

// moveLastConsumer schedules a consumer cluster of the last class of l
// that has one dt periods after its producer, and returns that class.
func moveLastConsumer(t *testing.T, l *layout, dt int) int {
	t.Helper()
	for k := len(l.classes) - 1; k >= 1; k-- {
		rep := l.classes[k].Rep
		for _, id := range l.g.Clusters[rep].Nodes {
			for _, ei := range l.g.DFG.OutEdges(id) {
				if to := l.g.ClusterOf(l.g.DFG.Edges[ei].To); to != rep {
					l.cp.T[to] = l.cp.T[rep] + dt
					return k
				}
			}
		}
	}
	t.Fatal("no class after the first has a consumer in another cluster")
	return -1
}

// TestRoundInvariantFailureEndsNegotiation: a sink that is out of reach
// in time stays out of reach whatever the history costs become, so the
// round that finds it is the last — even though earlier classes left
// oversubscribed nodes that the next round would have bumped.
func TestRoundInvariantFailureEndsNegotiation(t *testing.T) {
	// The premise: on this layout a round does end oversubscribed. Both
	// routes share one session, as the attempts of a wave slot do.
	ses := new(route.Session)
	_, st, err := narrowBICGLayout(t).routeCanonical(context.Background(), ses, 3)
	if !errors.Is(err, diag.ErrRouteCongested) || st.Rounds != 3 {
		t.Fatalf("unbroken layout: rounds=%d err=%v, want 3 congested rounds", st.Rounds, err)
	}

	l := narrowBICGLayout(t)
	broken := breakLastClass(t, l)
	_, st, err = l.routeCanonical(context.Background(), ses, 8)
	if !errors.Is(err, route.ErrNoPath) {
		t.Fatalf("err = %v, want route.ErrNoPath", err)
	}
	const want = "class 7 (rep (3,1)): net r -> r: route: no path from net 63 (src OUT.E@(3,0)t15) to OUT.E@(3,1)t11"
	if err.Error() != want {
		t.Errorf("class %d broken, failed with\n %v\nwant (the text this failure had when it took every round)\n %s", broken, err, want)
	}
	if st.Rounds != 1 {
		t.Errorf("negotiation ran %d rounds on a failure no round can change, want 1", st.Rounds)
	}
}

// TestSearchLimitRetriesRound: a search that runs out of visits can end
// differently once history moves costs, so the round that meets it is
// not the last while earlier classes of that round left nodes
// oversubscribed. A consumer scheduled 64 periods after its producer
// gives the last class a search window of over 256 cycles, past the 16×
// key-space budget Reset sets; negotiation must spend every round on it.
func TestSearchLimitRetriesRound(t *testing.T) {
	l := narrowBICGLayout(t)
	moveLastConsumer(t, l, 64)
	_, st, err := l.routeCanonical(context.Background(), new(route.Session), 8)
	if !errors.Is(err, route.ErrSearchLimit) {
		t.Fatalf("err = %v, want route.ErrSearchLimit", err)
	}
	if st.Rounds != 8 {
		t.Errorf("negotiation ran %d rounds after a search ran out of visits, want all 8", st.Rounds)
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// (polls+1)-th call on: routeCanonical polls once per round, so the
// cancellation lands with a whole round's nets recorded.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestFailedRoutesLeaveSessionReusable routes, on one session as a
// worker's attempts do, a layout whose negotiation runs out of rounds, a
// layout that fails inside a class (leaving that class's partial nets),
// and one canceled after a round: each must fail as it did when every
// round allocated afresh, and leave each net it made live in the session
// once, for the next reset to recycle. Then a layout routes on the
// session: its plans must equal those of a fresh session, the session's
// live nets must be exactly the plan's, in plan order, every plan net
// must be its own, and each must still hold every node of its sinks'
// paths. A net recycled twice would reach two live nets through the
// freelist; a winner's net recycled on success would lose its nodes.
func TestFailedRoutesLeaveSessionReusable(t *testing.T) {
	ses := new(route.Session)
	broken := narrowBICGLayout(t)
	breakLastClass(t, broken)
	for _, f := range []struct {
		what   string
		l      *layout
		ctx    context.Context
		rounds int
		want   string
	}{
		{"out of rounds", narrowBICGLayout(t), context.Background(), 3,
			"himap: 32 resources oversubscribed (e.g. [RFW@(0,0)t-1 RFR@(0,0)t2 OUT.E@(0,0)t2 OUT.S@(0,0)t2]): routing congestion unresolved"},
		{"failed inside a class", broken, context.Background(), 8,
			"class 7 (rep (3,1)): net r -> r: route: no path from net 63 (src OUT.E@(3,0)t15) to OUT.E@(3,1)t11"},
		{"canceled after a round", narrowBICGLayout(t), &cancelAfter{Context: context.Background(), polls: 1}, 8,
			"himap: compilation canceled: context canceled"},
	} {
		if _, _, err := f.l.routeCanonical(f.ctx, ses, f.rounds); err == nil || err.Error() != f.want {
			t.Fatalf("%s: err = %v, want %s", f.what, err, f.want)
		}
		live := map[*route.Net]bool{}
		for _, net := range ses.Nets() {
			if live[net] {
				t.Fatalf("%s: net %d is live twice in the session", f.what, net.ID)
			}
			live[net] = true
		}
	}

	l := bicgLayout(t)
	got, st, err := l.routeCanonical(context.Background(), ses, 8)
	if err != nil {
		t.Fatal(err)
	}
	var planNets []*route.Net
	for _, nets := range got {
		for _, cn := range nets {
			planNets = append(planNets, cn.net)
		}
	}
	if len(planNets) != st.CanonicalNets || !slices.Equal(ses.Nets(), planNets) {
		t.Fatalf("the session holds %d live nets for a plan of %d, or not the plan's in plan order", len(ses.Nets()), st.CanonicalNets)
	}
	want, _, err := bicgLayout(t).routeCanonical(context.Background(), new(route.Session), 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*route.Net]bool{}
	for ci := range want {
		if len(got[ci]) != len(want[ci]) {
			t.Fatalf("class %d: %d nets after failed routes on the session, %d on a fresh one", ci, len(got[ci]), len(want[ci]))
		}
		for i, cn := range got[ci] {
			if cn.SrcID != want[ci][i].SrcID || !reflect.DeepEqual(cn.Sinks, want[ci][i].Sinks) {
				t.Fatalf("class %d net %d: after failed routes on the session\n %+v\na fresh session routed\n %+v", ci, i, cn, want[ci][i])
			}
			if seen[cn.net] {
				t.Fatalf("class %d net %d (src %d) shares its route.Net with another net of the plan", ci, i, cn.SrcID)
			}
			seen[cn.net] = true
			for _, sink := range cn.Sinks {
				for _, n := range sink.Path {
					if ses.Occ(n) <= 0 {
						t.Fatalf("class %d net %d lost %v of its path to node %d: the session holds no occupancy on it", ci, i, n, sink.ConsumerID)
					}
				}
			}
		}
	}
}

// TestReserveFixedMatchesNodeWalk: reserving each class representative's
// fixed placements, translated to every member, leaves the occupancy of
// reserving nodeAbs for every DFG node — on every dense key, on every
// attempt that reaches the route stage of the congested workload's
// fourteen inputs and of the scale64 workload's ten. With the attempt's
// live region set, the members it keeps leave that occupancy on every
// live PE.
func TestReserveFixedMatchesNodeWalk(t *testing.T) {
	type input struct {
		kernel string
		fab    arch.Fabric
	}
	var inputs []input
	variant := func(mod func(*arch.Fabric), names ...string) {
		for _, n := range names {
			f := arch.DefaultFabric(8, 8)
			mod(&f)
			inputs = append(inputs, input{n, f})
		}
	}
	variant(func(f *arch.Fabric) { f.Topology = arch.TopoMeshDiag }, "ATAX", "BICG")
	variant(func(f *arch.Fabric) { f.Bandwidth = arch.BWNarrowRF }, "ATAX", "BICG", "MVT", "GEMM", "SYRK", "FW", "TTM")
	variant(func(f *arch.Fabric) { f.Bandwidth = arch.BWBus }, "MVT", "GEMM", "SYRK", "TTM")
	variant(func(f *arch.Fabric) { f.Mem = arch.MemBoundary }, "FW")
	for _, n := range []string{"ADI", "ATAX", "BICG", "MVT", "GEMM"} {
		inputs = append(inputs, input{n, arch.DefaultFabric(32, 32)}, input{n, arch.DefaultFabric(64, 64)})
	}
	routeAt := slices.IndexFunc(attemptStages, func(st Stage) bool { return st.Name == StageRoute })
	attempts, reserved, liveAttempts := 0, 0, 0
	for _, in := range inputs {
		k, err := kernel.ByName(in.kernel)
		if err != nil {
			t.Fatal(err)
		}
		front := newContext(context.Background(), k, in.fab, Options{Workers: 1, Memo: NewMemo()}.withDefaults())
		if err := frontStages.Run(front); err != nil {
			t.Fatalf("%s/%s: %v", in.kernel, in.fab, err)
		}
		for i, a := range front.Attempts {
			c := front.forAttempt(a, context.Background(), i+1, 1, nil)
			if attemptStages[:routeAt].Run(c) != nil {
				continue
			}
			l := &layout{cg: c.Fab, g: c.ISDG, cp: c.CP, sub: c.Sub, iib: c.IIB, classes: c.Classes, byClust: c.ByCluster}
			g := mrrg.New(l.cg, l.iib)
			walk, byClass := new(route.Session).Reset(g), new(route.Session).Reset(g)
			for _, n := range l.g.DFG.Nodes {
				if abs, ok := l.nodeAbs(n.ID); ok {
					walk.Reserve(abs)
					reserved++
				}
			}
			l.reserveFixed(byClass)
			live := new(route.Session)
			l.setLive(live, g)
			l.reserveFixed(live)
			attempts++
			diffs := 0
			for tt := 0; tt < g.II; tt++ {
				for r := 0; r < l.cg.Rows; r++ {
					for col := 0; col < l.cg.Cols; col++ {
						inLive := slices.ContainsFunc(l.live, func(b route.Box) bool { return b.Holds(r, col) })
						for slot := 0; slot < g.SlotsPerPE(); slot++ {
							cl, idx := g.SlotResource(slot)
							n := mrrg.Node{T: tt, R: r, C: col, Class: cl, Idx: idx}
							if walk.Occ(n) != byClass.Occ(n) && diffs < 3 {
								diffs++
								t.Errorf("%s/%s attempt %d: %v occupied %d by the node walk, %d by class", in.kernel, in.fab, i+1, n, walk.Occ(n), byClass.Occ(n))
							}
							if inLive && walk.Occ(n) != live.Occ(n) && diffs < 3 {
								diffs++
								t.Errorf("%s/%s attempt %d: live %v occupied %d by the node walk, %d in the live region", in.kernel, in.fab, i+1, n, walk.Occ(n), live.Occ(n))
							}
						}
					}
				}
			}
			if l.live != nil {
				liveAttempts++
			}
		}
	}
	t.Logf("%d attempts, %d with a live region, %d fixed placements", attempts, liveAttempts, reserved)
	if attempts < 100 || liveAttempts < 10 {
		t.Errorf("only %d attempts reached the route stage, %d with a live region", attempts, liveAttempts)
	}
}
