package exact

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"himap/internal/arch"
	"himap/internal/kernel"
	"himap/internal/route"
)

type namedFabric struct {
	name string
	fab  arch.Fabric
}

// screenFabrics are the 4x4 variants the leaf screen must stay sound on:
// each changes what a link path is (wrap links, diagonals, one shared
// egress key per PE) or which placements exist (one RF port, boundary
// memory).
func screenFabrics() []namedFabric {
	variant := func(name string, mod func(*arch.Fabric)) namedFabric {
		f := arch.DefaultFabric(accSize, accSize)
		mod(&f)
		return namedFabric{name, f}
	}
	return []namedFabric{
		variant("mesh", func(*arch.Fabric) {}),
		variant("torus", func(f *arch.Fabric) { f.Topology = arch.TopoTorus }),
		variant("diag", func(f *arch.Fabric) { f.Topology = arch.TopoMeshDiag }),
		variant("bus", func(f *arch.Fabric) { f.Bandwidth = arch.BWBus }),
		variant("narrow-rf", func(f *arch.Fabric) { f.Bandwidth = arch.BWNarrowRF }),
		variant("mem-boundary", func(f *arch.Fabric) { f.Mem = arch.MemBoundary }),
	}
}

// legalSlots lists the (cycle, PE) slots node v may take with every other
// assigned node where it is: port capability, the exact latency of each
// edge to an assigned neighbour, slot exclusivity. v itself is unassigned.
func legalSlots(s *searcher, v int) [][2]int {
	var out [][2]int
	kv := s.d.Nodes[v].Kind
	for t := s.asap[v]; t <= s.hi[v]; t++ {
	pes:
		for pe := 0; pe < s.pes; pe++ {
			if s.isMem[v] && !s.memOK[pe] || int(s.slotCnt[s.slotIdx(s.kindOf[v], t, pe)]) >= s.slotCap(s.kindOf[v]) {
				continue
			}
			for _, ei := range s.d.InEdges(v) {
				if u := s.d.Edges[ei].From; s.at[u] >= 0 && t-s.at[u] < s.need(s.d.Nodes[u].Kind, kv, s.ape[u], pe) {
					continue pes
				}
			}
			for _, ei := range s.d.OutEdges(v) {
				if x := s.d.Edges[ei].To; s.at[x] >= 0 && s.at[x]-t < s.need(kv, s.d.Nodes[x].Kind, pe, s.ape[x]) {
					continue pes
				}
			}
			out = append(out, [2]int{t, pe})
		}
	}
	return out
}

// listPlace fills the searcher with a seeded list placement — nodes in
// topological order, each on a random PE at the earliest cycle its
// predecessors and the slot allow — the tight, zero-slack-rich shape an
// SA placement at a low II has. false: some node found no slot.
func listPlace(s *searcher, rng *rand.Rand) bool {
	for _, v := range s.order {
		s.unassign(v)
	}
	for _, v := range s.order {
		slots := legalSlots(s, v)
		if len(slots) == 0 {
			return false
		}
		pe := slots[rng.Intn(len(slots))][1]
		for _, sl := range slots { // cycle-ascending: the first hit is the earliest
			if sl[1] == pe {
				s.assign(v, sl[0], pe)
				break
			}
		}
	}
	return true
}

// perturb moves one random node to a random legal slot.
func perturb(s *searcher, rng *rand.Rand) {
	v := s.order[rng.Intn(len(s.order))]
	t, pe := s.at[v], s.ape[v]
	s.unassign(v)
	if slots := legalSlots(s, v); len(slots) > 0 {
		sl := slots[rng.Intn(len(slots))]
		t, pe = sl[0], sl[1]
	}
	s.assign(v, t, pe)
}

// TestScreenNeverRefutesRoutable is the screen's soundness gate: on every
// complete placement it is shown — the leaves the search reaches, seeded
// list placements, and random one-node perturbations of both, over 8
// kernels and six fabric variants — a refutation must be followed by a
// failure of the detailed router itself. (The converse is not a property:
// the screen is a necessary condition only.)
func TestScreenNeverRefutesRoutable(t *testing.T) {
	const (
		leafCap  = 8 // search leaves followed per (kernel, fabric, II)
		lists    = 4 // list placements per (kernel, fabric, II)
		perturbs = 3 // perturbations chained off each of the above
	)
	ctx := context.Background()
	ses := new(route.Session) // re-targeted per searcher, as in CompileRequest
	placements, refuted := 0, 0
	for _, nf := range screenFabrics() {
		fname, fab := nf.name, nf.fab
		for _, k := range kernel.Evaluation() {
			d, err := k.BuildDFG(k.UniformBlock(accBlock))
			if err != nil {
				t.Fatal(err)
			}
			mii, err := staticMII(d, fab)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(d.Nodes))))
			// judge screens the searcher's current placement and, on a
			// refutation, asks the router. It reports whether the placement
			// routed (unknown — reported false — when it was not asked).
			judge := func(s *searcher, what string, mustRoute bool) bool {
				placements++
				bad := s.screen.refutes(s)
				if !bad && !mustRoute {
					return false
				}
				_, err := s.routeLeaf(ctx)
				if bad {
					refuted++
					if err == nil {
						t.Errorf("%s/%s II %d: screen refuted a %s that routes: at=%v pe=%v", k.Name, fname, s.ii, what, s.at, s.ape)
					}
				}
				return err == nil
			}
			shake := func(s *searcher, what string) {
				at, ape := append([]int(nil), s.at...), append([]int(nil), s.ape...)
				for p := 0; p < perturbs; p++ {
					perturb(s, rng)
					judge(s, "perturbed "+what, false)
				}
				for _, v := range s.order {
					s.unassign(v)
				}
				for _, v := range s.order {
					s.assign(v, at[v], ape[v])
				}
			}
			for ii := mii; ii <= mii+1; ii++ {
				s := newSearcher(d, fab, ii, Options{}.withDefaults(), ses)
				for n := 0; n < leafCap && s.descend(ctx, time.Time{}) == statusLeaf; n++ {
					routed := judge(s, "search leaf", true)
					shake(s, "search leaf")
					if routed || !s.failLeaf() {
						break
					}
				}
				s = newSearcher(d, fab, ii, Options{}.withDefaults(), ses)
				for n := 0; n < lists; n++ {
					if listPlace(s, rng) {
						judge(s, "list placement", false)
						shake(s, "list placement")
					}
				}
			}
		}
	}
	t.Logf("%d placements screened, %d refuted and confirmed unroutable", placements, refuted)
	if placements < 2000 || refuted < 200 {
		t.Errorf("%d placements, %d refuted: the gate needs >= 2000 and >= 200 to mean anything", placements, refuted)
	}
}

// exactTrajectory pins one flat_backends exact input: everything but
// screened was captured at the parent of the commit that added the leaf
// screen, so the screen is shown to remove router calls and no decision;
// screened was captured with it, so a screen that silently refutes less
// (paths enumerated too wide, a capacity read too high) fails here.
type exactTrajectory struct {
	kernel     string
	ii         int
	explored   int64
	leaves     int
	cert       Certificate
	lowerBound int
	configSHA  string
	screened   int
}

var exactTrajectories = []exactTrajectory{
	{"ADI", 3, 6182, 150, "", 2, "0c50fdc1361aad5ae0f3c97e66f33f22e5ff7b1f98833cc549b6d8d2c1ba3ac3", 131},
	{"ATAX", 2, 40, 0, "resmii", 2, "e0ddf8d17a3cf4fde0d5ee892c8920792f21d36edeb2214b9ac06b812dd5ae50", 0},
	{"BICG", 2, 75, 7, "resmii", 2, "37ef99aaf2b5a77006ba3924043ae059cd956d5d0b8d848c6df3586859fb59cc", 7},
	{"MVT", 2, 40, 0, "resmii", 2, "27045adc7129160945d4a311c5040e4c456837133629bdddd28f09f3bc7dcb0b", 0},
	{"GEMM", 3, 6193, 154, "", 2, "b3121b9d05f12b1b9c2ca27d5cd61c4fdfe2c2528ef9a7e4db4e0b7b5d31a95c", 89},
	{"SYRK", 3, 6193, 154, "", 2, "ce5e3c4eaa450215f4cd2265930d8d196b8ca101576a9f79c81f0e53528005e4", 89},
	{"FW", 3, 9432, 158, "", 2, "3b0a4e8981e28d65129c03a8200405c859e5d3a2c93f5145cd262ce01f030557", 48},
	{"TTM", 4, 176, 11, "resmii", 4, "e8adf16f3a6caa8628c6b8408b31ab8a149f6004b864dd3b4bf1343bd1926c04", 10},
}

// TestExactTrajectoryPinned: the screen is a pre-filter, not a
// propagator — II, decisions, leaves, certificate and configuration
// bytes of the eight flat_backends exact inputs are the parent's.
func TestExactTrajectoryPinned(t *testing.T) {
	total := 0
	for _, want := range exactTrajectories {
		k, err := kernel.ByName(want.kernel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CompileRequest(context.Background(), k, arch.DefaultFabric(accSize, accSize), k.UniformBlock(accBlock), Options{})
		if err != nil {
			t.Fatalf("%s: %v", want.kernel, err)
		}
		js, err := res.Config.AppendJSON(nil)
		if err != nil {
			t.Fatalf("%s: %v", want.kernel, err)
		}
		got := exactTrajectory{want.kernel, res.II, res.Optimality.Explored, res.RoutedLeaves,
			res.Optimality.Certificate, res.Optimality.IILowerBound, fmt.Sprintf("%x", sha256.Sum256(js)), res.ScreenedLeaves}
		if got != want {
			t.Errorf("trajectory moved:\n got %+v\nwant %+v", got, want)
		}
		total += res.ScreenedLeaves
	}
	t.Logf("screened %d of the workload's losing leaves", total)
}
