package himap_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

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
// Every paper kernel wins at attempt 1 or 2 on the default 8x8, so two
// congested compiles join them — FW on narrow-rf and MVT on the shared
// bus, 30-odd attempts each: they keep the speculative window full past
// its first three widths of Workers=4, and every worker's routing
// session is re-targeted by many attempts. Workers=2 is the width the
// paper_par workload runs at on a two-processor host.
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
				t.Fatalf("won at attempt %d: the window of Workers=4 did not fill three times", r1.Stats.Attempts)
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
				// in particular Attempts, which proves the speculative window
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

			// Cold path, speculative window.
			check("Workers=2 cold", himap.Options{Workers: 2, Memo: himap.NewMemo()})
			check("Workers=4 cold", himap.Options{Workers: 4, Memo: himap.NewMemo()})

			// Memoized path: both worker counts recompile against one
			// shared memo warmed by a first compile, so the IDFG,
			// sub-mapping list, and ISDG all come from the cache.
			warm := himap.NewMemo()
			if _, err := compileFabric(k, cg, himap.Options{Workers: 1, Memo: warm}); err != nil {
				t.Fatal(err)
			}
			check("Workers=1 memoized", himap.Options{Workers: 1, Memo: warm})
			check("Workers=2 memoized", himap.Options{Workers: 2, Memo: warm})
			check("Workers=4 memoized", himap.Options{Workers: 4, Memo: warm})
		})
	}
}

// TestSpeculationWindowSpans pins the speculative window's schedule on
// three compiles that win past attempt 1 (MVT 16x16 at attempt 2; FW and
// GEMM on the 8x8 narrow-rf fabric at attempts 35 and 19), at Workers=4.
// GEMM's attempt 21 also maps, in about half the time of attempt 19, so
// a success above the winner occurs and must not commit. The window runs
// attempt 1 alone, so it is the only attempt of launch generation 1,
// and then up to four at once, so some attempt launches in a generation
// below its rank; every attempt below the winner runs to completion, so
// it emits the spans it emits at Workers=1, Wall and Wave left out; and
// an attempt ranked above the winner is stopped without failing, so
// none emits a cancellation error span.
func TestSpeculationWindowSpans(t *testing.T) {
	narrow := himap.DefaultFabric(8, 8)
	narrow.Bandwidth = himap.BWNarrowRF
	for _, c := range []struct {
		name string
		k    *himap.Kernel
		fab  himap.Fabric
	}{
		{"MVT/16x16", himap.KernelMVT(), himap.DefaultFabric(16, 16)},
		{"FW/narrow-rf", himap.KernelFW(), narrow},
		{"GEMM/narrow-rf", himap.KernelGEMM(), narrow},
	} {
		t.Run(c.name, func(t *testing.T) {
			below := func(workers int) (win int, lines []string, spans []himap.TraceSpan) {
				tr := himap.NewTraceCollector()
				r, err := compileFabric(c.k, c.fab, himap.Options{Workers: workers, Memo: himap.NewMemo(), Tracer: tr})
				if err != nil {
					t.Fatalf("Workers=%d: %v", workers, err)
				}
				for _, s := range tr.Spans() {
					if s.Attempt > 0 && s.Attempt < r.Stats.Attempts {
						lines = append(lines, fmt.Sprintf("%d|%s|%s|%v", s.Attempt, s.Stage, s.Err, s.Counters))
					}
				}
				sort.Strings(lines)
				return r.Stats.Attempts, lines, tr.Spans()
			}
			win1, want, _ := below(1)
			if win1 < 2 {
				t.Fatalf("won at attempt %d: the window never widens", win1)
			}
			// Which attempts above the winner run, and how far, is a matter
			// of timing, so the window runs three times.
			for run := 0; run < 3; run++ {
				win, got, spans := below(4)
				if win != win1 {
					t.Fatalf("Workers=4 won at attempt %d, Workers=1 at %d", win, win1)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("attempts below the winner emitted %d spans at Workers=4, %d at Workers=1, or different ones", len(got), len(want))
				}
				wide := false // some attempt launched beside an unfinished one
				for _, s := range spans {
					if strings.Contains(s.Err, himap.ErrCanceled.Error()) {
						t.Errorf("attempt %d: a stopped attempt emitted the error span %q", s.Attempt, s.Err)
					}
					if s.Attempt > 0 && ((s.Wave == 1) != (s.Attempt == 1) || s.Wave > s.Attempt) {
						t.Errorf("attempt %d ran in launch generation %d", s.Attempt, s.Wave)
					}
					wide = wide || s.Wave < s.Attempt
				}
				if !wide {
					t.Error("every attempt launched in the generation of its rank: the window never widened")
				}
			}
		})
	}
}

// TestAttemptPanicPropagates: a panic inside an attempt, here from the
// caller's Tracer on the attempt's isdg-build span, reaches the caller
// of CompileRequest, for attempt 1 (run alone on the caller's goroutine)
// and for attempt 2 (run in the window beside attempt 3). MVT 16x16
// wins at attempt 2, so both attempts reach isdg-build. A window whose
// workers wait on one another hangs instead, holding its goroutines and,
// in himapd, the request's admission slot.
func TestAttemptPanicPropagates(t *testing.T) {
	for _, rank := range []int{1, 2} {
		t.Run(fmt.Sprintf("attempt%d", rank), func(t *testing.T) {
			boom := fmt.Sprintf("tracer panic at attempt %d", rank)
			tr := tracerFunc(func(s himap.TraceSpan) {
				if s.Attempt == rank && s.Stage == "isdg-build" {
					panic(boom)
				}
			})
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				_, err := compileFabric(himap.KernelMVT(), himap.DefaultFabric(16, 16),
					himap.Options{Workers: 2, Memo: himap.NewMemo(), Tracer: tr})
				t.Errorf("the compile returned (err %v) instead of panicking", err)
			}()
			select {
			case r := <-done:
				if r != boom {
					t.Fatalf("recovered %v, want %q", r, boom)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the compile hung after an attempt panicked")
			}
		})
	}
}

// TestCancellationBelowASuccess: GEMM on the 8x8 narrow-rf fabric wins
// at attempt 19, and attempt 21 also maps. At Workers=4 attempt 19 is
// held at its first span until an attempt above it has passed validate,
// and the caller's context is canceled there, so attempt 19 stops
// canceled below a success. The compile must fail with ErrCanceled:
// committing the success above it would return a mapping that Workers=1
// never emits.
func TestCancellationBelowASuccess(t *testing.T) {
	narrow := himap.DefaultFabric(8, 8)
	narrow.Bandwidth = himap.BWNarrowRF
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	above := make(chan struct{})
	var once sync.Once
	tr := tracerFunc(func(s himap.TraceSpan) {
		switch {
		case s.Attempt == 19 && s.Stage == "block-derive":
			select {
			case <-above:
			case <-time.After(10 * time.Second):
			}
		case s.Attempt > 19 && s.Stage == "validate" && s.Err == "":
			once.Do(func() { cancel(); close(above) })
		}
	})
	res, err := himap.CompileRequest(ctx, himap.Request{Kernel: himap.KernelGEMM(), Fabric: narrow,
		Options: himap.Options{Workers: 4, Memo: himap.NewMemo(), Tracer: tr}})
	select {
	case <-above:
	default:
		t.Fatal("no attempt above 19 passed validate while attempt 19 was held")
	}
	if err == nil {
		t.Fatalf("a canceled compile committed attempt %d", res.Stats.Attempts)
	}
	if !errors.Is(err, himap.ErrCanceled) {
		t.Fatalf("errors.Is(err, ErrCanceled) = false: %v", err)
	}
}

type tracerFunc func(himap.TraceSpan)

func (f tracerFunc) Emit(s himap.TraceSpan) { f(s) }

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
