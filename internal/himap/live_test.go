package himap

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/kernel"
	"himap/internal/mrrg"
	"himap/internal/route"
)

// liveCounters are the route span's counters of the live region; the
// exactness test compares every other counter.
var liveCounters = []string{"reserved", "charged", "live_pes", "fallbacks"}

// withHalo runs f with liveHaloPeriods set to periods.
func withHalo(periods int, f func()) {
	defer func(was int) { liveHaloPeriods = was }(liveHaloPeriods)
	liveHaloPeriods = periods
	f()
}

// spanLines renders spans as "attempt|stage|err|counters", leaving out
// the given counters (and Wall and Wave, as the span golden does).
func spanLines(spans []diag.Span, drop []string) []string {
	var out []string
	for _, s := range spans {
		var names []string
		for name := range s.Counters {
			if !slices.Contains(drop, name) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		var b strings.Builder
		fmt.Fprintf(&b, "%d|%s|%s|", s.Attempt, s.Stage, s.Err)
		for _, name := range names {
			fmt.Fprintf(&b, "%s=%d,", name, s.Counters[name])
		}
		out = append(out, b.String())
	}
	return out
}

// sumRoute adds up one counter over the route spans.
func sumRoute(spans []diag.Span, name string) (n int64) {
	for _, s := range spans {
		if s.Stage == StageRoute {
			n += s.Counters[name]
		}
	}
	return n
}

// routeUpTo runs the attempts of a Workers=1 compile of k on fab through
// the route stage, up to the first that routes, and returns their spans
// and the layouts that reached route.
func routeUpTo(t *testing.T, k *kernel.Kernel, fab arch.Fabric) ([]diag.Span, []*CompileContext) {
	t.Helper()
	spans := diag.NewCollector()
	front := newContext(context.Background(), k, fab, Options{Workers: 1, Memo: NewMemo(), Tracer: spans}.withDefaults())
	if err := frontStages.Run(front); err != nil {
		t.Fatalf("%s/%s: %v", k.Name, fab, err)
	}
	routeAt := slices.IndexFunc(attemptStages, func(st Stage) bool { return st.Name == StageRoute })
	var routed []*CompileContext
	for i, a := range front.Attempts {
		c := front.forAttempt(a, context.Background(), i+1, 1, new(route.Session))
		if attemptStages[:routeAt].Run(c) != nil {
			continue
		}
		routed = append(routed, c)
		if attemptStages[routeAt:routeAt+1].Run(c) == nil {
			return spans.Spans(), routed
		}
	}
	t.Fatalf("%s/%s: no attempt routes", k.Name, fab)
	return nil, nil
}

// TestLiveRegionExact: a round that keeps only the live region exact
// routes as one that keeps the whole array. Each input is compiled twice,
// as it is and with a zero halo, whose boxes no search window fits, so
// the guard sends every attempt back to the whole array. Both compiles
// must give the same mapping and the same span stream but for the live
// region's counters, and the zero halo must have tripped the guard where
// a region was set (not on the torus, which has none). Per attempt that
// reaches route, negotiation capped at every round count must leave the
// same nets, paths and error, and the same occupancy on every live PE.
func TestLiveRegionExact(t *testing.T) {
	type input struct {
		kernel string
		fab    arch.Fabric
	}
	var inputs []input
	for _, n := range []string{"ADI", "MVT", "GEMM"} {
		inputs = append(inputs, input{n, arch.DefaultFabric(32, 32)}, input{n, arch.DefaultFabric(64, 64)})
	}
	torus, diagFab := arch.DefaultFabric(32, 32), arch.DefaultFabric(32, 32)
	torus.Topology, diagFab.Topology = arch.TopoTorus, arch.TopoMeshDiag
	inputs = append(inputs, input{"GEMM", torus}, input{"ATAX", diagFab})
	for _, in := range inputs {
		name := in.kernel + "/" + in.fab.String()
		k, err := kernel.ByName(in.kernel)
		if err != nil {
			t.Fatal(err)
		}
		compile := func() (string, []diag.Span) {
			spans := diag.NewCollector()
			r, err := CompileRequest(context.Background(), k, in.fab, Options{Workers: 1, Memo: NewMemo(), Tracer: spans})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return routerFingerprint(r.Config), spans.Spans()
		}
		digest, spans := compile()
		var shrunkDigest string
		var shrunk []diag.Span
		withHalo(0, func() { shrunkDigest, shrunk = compile() })
		if digest != shrunkDigest {
			t.Errorf("%s: the mapping changed with a zero halo", name)
		}
		if a, b := spanLines(spans, liveCounters), spanLines(shrunk, liveCounters); !slices.Equal(a, b) {
			t.Errorf("%s: the span streams differ beyond the live region's counters:\n%s\nwith a zero halo:\n%s", name, strings.Join(a, "\n"), strings.Join(b, "\n"))
		}
		regions := false
		for _, s := range spans {
			if s.Stage == StageRoute && s.Counters["live_pes"] < int64(in.fab.NumPEs()) {
				regions = true
			}
		}
		// With the halo, no window leaves its box on the mesh; with
		// diagonal links some do (ATAX's corner class), and those attempts
		// fall back as the zero halo's do.
		falls, shrunkFalls := sumRoute(spans, "fallbacks"), sumRoute(shrunk, "fallbacks")
		if (falls != 0 && in.fab.Topology == arch.TopoMesh) || regions != (shrunkFalls > 0) || regions == in.fab.Topology.Wraps() {
			t.Errorf("%s: live regions set %v, guard trips %d with the halo and %d without", name, regions, falls, shrunkFalls)
		}
		t.Logf("%s: live PEs %d summed over the route spans, guard trips %d with the halo and %d with a zero halo", name, sumRoute(spans, "live_pes"), falls, shrunkFalls)

		_, routed := routeUpTo(t, k, in.fab)
		for _, c := range routed {
			fresh := func() *layout {
				return &layout{cg: c.Fab, g: c.ISDG, cp: c.CP, sub: c.Sub, iib: c.IIB, classes: c.Classes, byClust: c.ByCluster}
			}
			for cap := 1; cap <= c.RStats.Rounds; cap++ {
				l, ses := fresh(), new(route.Session)
				_, _, err := l.routeCanonical(context.Background(), ses, cap)
				wl, whole := fresh(), new(route.Session)
				var werr error
				withHalo(0, func() { _, _, werr = wl.routeCanonical(context.Background(), whole, cap) })
				what := fmt.Sprintf("%s attempt %d, %d rounds", name, c.Attempt, cap)
				if fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("%s: error %v, with a zero halo %v", what, err, werr)
				}
				if len(ses.Nets()) != len(whole.Nets()) {
					t.Fatalf("%s: %d nets, with a zero halo %d", what, len(ses.Nets()), len(whole.Nets()))
				}
				for i, net := range ses.Nets() {
					if w := whole.Nets()[i]; net.Src != w.Src || !slices.EqualFunc(net.Paths, w.Paths, slices.Equal) {
						t.Fatalf("%s: net %d routed\n %v\nwith a zero halo\n %v", what, i, net.Paths, w.Paths)
					}
				}
				for _, b := range l.live {
					for r := b.R0; r <= b.R1; r++ {
						for col := b.C0; col <= b.C1; col++ {
							for tt := 0; tt < c.IIB; tt++ {
								for slot := 0; slot < ses.G.SlotsPerPE(); slot++ {
									cl, idx := ses.G.SlotResource(slot)
									n := mrrg.Node{T: tt, R: r, C: col, Class: cl, Idx: idx}
									if ses.Occ(n) != whole.Occ(n) {
										t.Fatalf("%s: %v occupied %d in the live region, %d on the whole array", what, n, ses.Occ(n), whole.Occ(n))
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestRouteWorkFlat: route's per-round work does not grow with the array
// once the live region is smaller than it. GEMM (27 classes) and MVT (9)
// compile, through the route stage, at c = 16, 32, 64 and 128; the route
// spans' reserved + charged per round at 128 stays within 1.1× of 32's,
// and no guard trips on the mesh. On the whole array the same count grows
// as c².
func TestRouteWorkFlat(t *testing.T) {
	for _, name := range []string{"GEMM", "MVT"} {
		k, err := kernel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		perRound := map[int]float64{}
		for _, c := range []int{16, 32, 64, 128} {
			spans, _ := routeUpTo(t, k, arch.DefaultFabric(c, c))
			work := sumRoute(spans, "reserved") + sumRoute(spans, "charged")
			if work == 0 || sumRoute(spans, "live_pes") == 0 {
				t.Fatalf("%s %dx%d: the route spans count no work or no live PEs", name, c, c)
			}
			perRound[c] = float64(work) / float64(sumRoute(spans, "rounds"))
			if f := sumRoute(spans, "fallbacks"); f != 0 {
				t.Errorf("%s %dx%d: %d guard trips on the mesh", name, c, c, f)
			}
			t.Logf("%s %dx%d: live PEs %d, reserved+charged %d over %d rounds (%.0f a round)",
				name, c, c, sumRoute(spans, "live_pes"), work, sumRoute(spans, "rounds"), perRound[c])
		}
		if perRound[128] > 1.1*perRound[32] {
			t.Errorf("%s: reserved+charged per round %.0f at 128x128 against %.0f at 32x32", name, perRound[128], perRound[32])
		}
	}
}

// TestRoutedAttemptDropsSession: an attempt that routes lets its session
// go, so the window never hands a session that holds a routed plan's nets
// back to its free list, where the next attempt would re-target it while
// replicate still reads the plan; an attempt that fails at route keeps
// its session for the free list. MVT 16x16 loses attempt 1 at route and
// routes attempt 2.
func TestRoutedAttemptDropsSession(t *testing.T) {
	front := newContext(context.Background(), kernel.MVT(), arch.DefaultFabric(16, 16), Options{Workers: 1, Memo: NewMemo()}.withDefaults())
	if err := frontStages.Run(front); err != nil {
		t.Fatal(err)
	}
	routeAt := slices.IndexFunc(attemptStages, func(st Stage) bool { return st.Name == StageRoute })
	for i, routes := range []bool{false, true} {
		ses := new(route.Session)
		c := front.forAttempt(front.Attempts[i], context.Background(), i+1, 1, ses)
		err := attemptStages[:routeAt+1].Run(c)
		if (err == nil) != routes {
			t.Fatalf("attempt %d: route error %v, want routed %v", i+1, err, routes)
		}
		if routes && c.ses != nil {
			t.Errorf("attempt %d routed and still holds its session: the window would hand it back", i+1)
		}
		if !routes && c.ses != ses {
			t.Errorf("attempt %d failed at route and dropped its session", i+1)
		}
	}
}
