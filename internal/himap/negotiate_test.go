package himap

import (
	"context"
	"errors"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
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

	// Schedule a consumer cluster of the last class that has one a period
	// before its producer: the value would have to arrive before it exists.
	l := narrowBICGLayout(t)
	broken := -1
	for k := len(l.classes) - 1; k >= 1 && broken < 0; k-- {
		rep := l.classes[k].Rep
		for _, id := range l.g.Clusters[rep].Nodes {
			for _, ei := range l.g.DFG.OutEdges(id) {
				if to := l.g.ClusterOf(l.g.DFG.Edges[ei].To); to != rep && broken < 0 {
					l.cp.T[to] = l.cp.T[rep] - 1
					broken = k
				}
			}
		}
	}
	if broken < 1 {
		t.Fatal("no class after the first has a consumer in another cluster")
	}
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
