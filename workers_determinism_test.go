package himap_test

import (
	"bytes"
	"reflect"
	"testing"

	"himap"
)

// TestWorkersDeterminism pins the concurrency contract of the pipeline:
// the mapping HiMap emits is a pure function of (kernel, CGRA, Options
// minus Workers). Speculative scheme attempts always commit to the first
// success in sequential ranking order, and the systolic search merges its
// shards in enumeration order, so any Workers value must reproduce the
// Workers=1 configuration, bitstream, and (non-timing) statistics byte
// for byte — for every paper kernel, on both the cold path (fresh
// artifact memo) and the memoized path (recompiling against a memo warmed
// by the first run).
//
// Every paper kernel wins in the first wave on the default 8x8, so two
// congested compiles join them — FW on narrow-rf and MVT on the shared
// bus, 30-odd attempts each: at Workers=4 they run several waves, and
// every wave slot's routing session is re-targeted by attempts of later
// waves.
func TestWorkersDeterminism(t *testing.T) {
	type tc struct {
		name string
		k    *himap.Kernel
		fab  himap.Fabric
	}
	var cases []tc
	for _, k := range himap.EvaluationKernels() {
		cases = append(cases, tc{k.Name, k, himap.Fabric{CGRA: himap.DefaultCGRA(8, 8)}})
	}
	for _, c := range []struct {
		kernel string
		bw     himap.BandwidthClass
	}{{"FW", himap.BWNarrowRF}, {"MVT", himap.BWBus}} {
		k, err := himap.KernelByName(c.kernel)
		if err != nil {
			t.Fatal(err)
		}
		fab := himap.DefaultFabric(8, 8)
		fab.Bandwidth = c.bw
		cases = append(cases, tc{c.kernel + "/" + fab.String(), k, fab})
	}
	for _, c := range cases {
		k, cg := c.k, c.fab
		t.Run(c.name, func(t *testing.T) {
			// Reference: sequential, cold memo.
			r1, err := compileFabric(k, cg, himap.Options{Workers: 1, Memo: himap.NewMemo()})
			if err != nil {
				t.Fatal(err)
			}
			if c.fab.Bandwidth != himap.BWUnit && r1.Stats.Attempts <= 2*4 {
				t.Fatalf("won at attempt %d: fewer than three waves of Workers=4", r1.Stats.Attempts)
			}
			j1 := configJSON(t, r1)
			b1, err := himap.EncodeBitstream(r1.Config)
			if err != nil {
				t.Fatal(err)
			}

			check := func(label string, opts himap.Options) {
				r, err := compileFabric(k, cg, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !bytes.Equal(j1, configJSON(t, r)) {
					t.Fatalf("%s produced a different configuration than Workers=1", label)
				}
				b, err := himap.EncodeBitstream(r.Config)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(b1, b) {
					t.Fatalf("%s produced a different bitstream than Workers=1", label)
				}
				// Every non-timing statistic and result field must agree too —
				// in particular Attempts, which proves the wave execution
				// committed to the same (sub-mapping, scheme) pair.
				if r1.Stats.Attempts != r.Stats.Attempts {
					t.Errorf("%s: Attempts %d vs %d", label, r1.Stats.Attempts, r.Stats.Attempts)
				}
				if r1.Stats.CanonicalNets != r.Stats.CanonicalNets {
					t.Errorf("%s: CanonicalNets %d vs %d", label, r1.Stats.CanonicalNets, r.Stats.CanonicalNets)
				}
				if r1.Stats.RouteRounds != r.Stats.RouteRounds {
					t.Errorf("%s: RouteRounds %d vs %d", label, r1.Stats.RouteRounds, r.Stats.RouteRounds)
				}
				if r1.IIB != r.IIB || r1.UniqueIters != r.UniqueIters || r1.Utilization != r.Utilization {
					t.Errorf("%s: result stats differ: IIB %d/%d unique %d/%d U %v/%v", label,
						r1.IIB, r.IIB, r1.UniqueIters, r.UniqueIters, r1.Utilization, r.Utilization)
				}
				if !reflect.DeepEqual(r1.Block, r.Block) {
					t.Errorf("%s: block %v vs %v", label, r1.Block, r.Block)
				}
			}

			// Cold path, parallel waves.
			check("Workers=4 cold", himap.Options{Workers: 4, Memo: himap.NewMemo()})

			// Memoized path: both worker counts recompile against one
			// shared memo warmed by a first compile, so the IDFG,
			// sub-mapping list, and ISDG all come from the cache.
			warm := himap.NewMemo()
			if _, err := compileFabric(k, cg, himap.Options{Workers: 1, Memo: warm}); err != nil {
				t.Fatal(err)
			}
			check("Workers=1 memoized", himap.Options{Workers: 1, Memo: warm})
			check("Workers=4 memoized", himap.Options{Workers: 4, Memo: warm})
		})
	}
}

func configJSON(t *testing.T, r *himap.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := himap.SaveConfig(r.Config, &b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestBaselineChainsReproducible pins the baseline's multi-chain mode:
// every simulated-annealing chain is seeded explicitly from (Seed, DFG
// size, chain index, II), so two runs with the same options — including
// Workers > 1, where chains race on the pool — must pick the same winning
// chain and emit identical configurations.
func TestBaselineChainsReproducible(t *testing.T) {
	k, err := himap.KernelByName("MVT")
	if err != nil {
		t.Fatal(err)
	}
	cg := himap.DefaultCGRA(4, 4)
	opts := himap.BaselineOptions{Seed: 7, Workers: 2}
	ra, err := compileBaseline(k, cg, k.UniformBlock(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := compileBaseline(k, cg, k.UniformBlock(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	var ja, jb bytes.Buffer
	if err := himap.SaveConfig(ra.Config, &ja); err != nil {
		t.Fatal(err)
	}
	if err := himap.SaveConfig(rb.Config, &jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatal("baseline multi-chain run is not reproducible for a fixed seed")
	}
}

// TestWorkersDeterminismFabrics extends the determinism contract to the
// non-default fabrics: torus links and the boundary-column memory layout
// must also be pure functions of (kernel, fabric, Options minus Workers),
// on both the cold and the memoized path.
func TestWorkersDeterminismFabrics(t *testing.T) {
	cases := []struct {
		kernel string
		fab    himap.Fabric
	}{
		{"GEMM", himap.Fabric{CGRA: himap.DefaultCGRA(8, 8), Topology: himap.TopoTorus}},
		{"ATAX", himap.Fabric{CGRA: himap.DefaultCGRA(8, 8), Topology: himap.TopoTorus}},
		{"FW", himap.Fabric{CGRA: himap.DefaultCGRA(8, 8), Topology: himap.TopoTorus, Mem: himap.MemBoundary}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.kernel+"/"+tc.fab.String(), func(t *testing.T) {
			k, err := himap.KernelByName(tc.kernel)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := compileFabric(k, tc.fab, himap.Options{Workers: 1, Memo: himap.NewMemo()})
			if err != nil {
				t.Fatal(err)
			}
			j1 := configJSON(t, r1)

			check := func(label string, opts himap.Options) {
				r, err := compileFabric(k, tc.fab, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !bytes.Equal(j1, configJSON(t, r)) {
					t.Fatalf("%s produced a different configuration than Workers=1", label)
				}
			}
			check("Workers=4 cold", himap.Options{Workers: 4, Memo: himap.NewMemo()})

			warm := himap.NewMemo()
			if _, err := compileFabric(k, tc.fab, himap.Options{Workers: 1, Memo: warm}); err != nil {
				t.Fatal(err)
			}
			check("Workers=1 memoized", himap.Options{Workers: 1, Memo: warm})
			check("Workers=4 memoized", himap.Options{Workers: 4, Memo: warm})
		})
	}
}
