package route

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
)

// peMII is the baseline's bound before the flat backends shared one:
// loads and stores against the PE count, not the memory-capable PE
// count. On a fabric whose every PE has a memory port the two agree.
func peMII(d *ir.DFG, fab arch.Fabric) int {
	nfu, nload, nstore := d.NumCompute(), 0, 0
	for _, n := range d.Nodes {
		switch n.Kind {
		case ir.OpLoad:
			nload++
		case ir.OpStore:
			nstore++
		case ir.OpRoute:
			nfu++
		}
	}
	pes := fab.NumPEs()
	return max(1, (nfu+pes-1)/pes, (nload+pes-1)/pes, (nstore+pes-1)/pes)
}

func blockDFG(t *testing.T, name string, b int) (*kernel.Kernel, *ir.DFG) {
	t.Helper()
	k, err := kernel.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := k.BuildDFG(k.UniformBlock(b))
	if err != nil {
		t.Fatal(err)
	}
	return k, d
}

// TestResourceMII pins the one flat bound: on boundary-memory fabrics
// loads and stores are divided among the memory-capable PEs (the inputs
// below are every catalog one, at 4x4 and 8x8 and blocks 2-4, where that
// differs from dividing them among all PEs), a memory kernel on a
// fabric with no memory PE is refused, and on the flat_backends inputs
// (default 4x4, block 2) it equals the PE-count bound both backends
// started from.
func TestResourceMII(t *testing.T) {
	boundary := []struct {
		kernel string
		n, b   int
		want   int
	}{
		{"ADI", 4, 3, 5}, {"ADI", 4, 4, 7}, {"CONV2D", 4, 2, 9}, {"CONV2D", 4, 3, 21},
		{"ADI", 8, 3, 3}, {"ADI", 8, 4, 4}, {"ATAX", 8, 3, 2}, {"ATAX", 8, 4, 3},
		{"BICG", 8, 3, 2}, {"BICG", 8, 4, 3}, {"MVT", 8, 3, 2}, {"MVT", 8, 4, 3},
		{"CONV2D", 8, 2, 5}, {"CONV2D", 8, 3, 11}, {"NW", 8, 3, 2},
	}
	for _, c := range boundary {
		_, d := blockDFG(t, c.kernel, c.b)
		fab := arch.DefaultFabric(c.n, c.n)
		fab.Mem = arch.MemBoundary
		got, err := ResourceMII(d, fab, true)
		if err != nil || got != c.want {
			t.Errorf("%s %s block %d: ResourceMII = %d, %v; want %d", c.kernel, fab, c.b, got, err, c.want)
		}
		if pe := peMII(d, fab); pe >= c.want {
			t.Errorf("%s %s block %d: the PE-count bound %d is not below the memory-port bound %d", c.kernel, fab, c.b, pe, c.want)
		}
	}

	_, d := blockDFG(t, "MVT", 2)
	none := arch.DefaultFabric(4, 4)
	none.Mem = arch.MemNone
	if _, err := ResourceMII(d, none, true); !errors.Is(err, diag.ErrMemPortInfeasible) {
		t.Errorf("MVT on %s: %v, want ErrMemPortInfeasible", none, err)
	}

	fab := arch.DefaultFabric(4, 4)
	routes := 0
	for _, k := range kernel.Evaluation() {
		_, d := blockDFG(t, k.Name, 2)
		got, err := ResourceMII(d, fab, true)
		if want := peMII(d, fab); err != nil || got != want {
			t.Errorf("%s %s block 2: ResourceMII = %d, %v; want the PE-count bound %d", k.Name, fab, got, err, want)
		}
		// Without routes on FUs the bound is exact's LowerBound.
		lb, err := ResourceMII(d, fab, false)
		if err != nil || lb > got {
			t.Errorf("%s: routes off FUs give %d, %v; want at most %d", k.Name, lb, err, got)
		}
		if lb < got {
			routes++
		}
	}
	if routes == 0 {
		t.Error("no flat_backends input has a bound that its route ops raise: routesOnFU is untested")
	}
}

// fakeMapper is a per-II step that routes nothing: it records what
// Deepen hands it and answers each II from fail (nil: success).
type fakeMapper struct {
	d      *ir.DFG
	tried  []int
	ses    *Session
	fail   func(ii int) error
	cfg    *arch.Config
	errSes string // the first II whose session was not re-targeted to it
}

func (m *fakeMapper) step(_ context.Context, d *ir.DFG, ii int, ses *Session) (*arch.Config, error) {
	prev := m.ses
	if (prev != nil && ses != prev) || ses.G == nil || ses.G.II != ii || ses.Occ(ses.G.FUNode(0, 0, 0)) != 0 {
		if m.errSes == "" {
			m.errSes = fmt.Sprintf("II %d: session %p (previous %p) over %v", ii, ses, prev, ses.G)
		}
	}
	m.d, m.ses = d, ses
	ses.Reserve(ses.G.FUNode(0, 0, 0)) // the next II must start from a reset session
	m.tried = append(m.tried, ii)
	if err := m.fail(ii); err != nil {
		return nil, err
	}
	m.cfg = arch.NewConfig(ses.G.Fab, ii)
	return m.cfg, nil
}

// TestDeepenContract holds the skeleton to its contract with a fake
// per-II step: IIs are tried in order from ResourceMII, each on the one
// Session re-targeted to it; the first success is the result, with the
// shared fields filled in at that II; a context canceled during an II is
// stamped ErrCanceled at the next II, before it runs, with the
// context's error as its cause; a step that reports a cancellation ends
// the deepening at its II; a bound past MaxII fails with the backend's
// class; and a deepening that runs out of IIs returns the last II's
// failure, classified.
func TestDeepenContract(t *testing.T) {
	k, d := blockDFG(t, "MVT", 2)
	fab := arch.DefaultFabric(4, 4)
	mii, err := ResourceMII(d, fab, true)
	if err != nil {
		t.Fatal(err)
	}
	block := k.UniformBlock(2)
	flat := Flat{MaxNodes: 400, MaxII: mii + 4, Stage: "fake", PastMaxII: diag.ErrProvedInfeasible, Tracer: diag.Nop()}
	run := func(ctx context.Context, fail func(ii int) error) (*fakeMapper, *FlatResult, error) {
		t.Helper()
		m := &fakeMapper{fail: fail}
		res, err := Deepen(ctx, k, fab, block, flat, m.step)
		if m.errSes != "" {
			t.Errorf("session not re-targeted once per II: %s", m.errSes)
		}
		return m, res, err
	}
	iis := func(from, to int) []int {
		var out []int
		for ii := from; ii <= to; ii++ {
			out = append(out, ii)
		}
		return out
	}
	stamped := func(err error, class error, ii int) *diag.StageError {
		t.Helper()
		var se *diag.StageError
		if !errors.Is(err, class) || !errors.As(err, &se) || se.Attempt != ii || se.Kernel != "MVT" || se.CGRA != fab.String() {
			t.Errorf("error %v, want %v stamped MVT on %s at II %d", err, class, fab, ii)
		}
		return se
	}

	t.Run("success", func(t *testing.T) {
		m, res, err := run(context.Background(), func(ii int) error {
			if ii < mii+2 {
				return diag.Failf(diag.ErrRouteCongested, "fake congestion")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.d == nil || len(m.d.Nodes) != len(d.Nodes) || fmt.Sprint(m.tried) != fmt.Sprint(iis(mii, mii+2)) {
			t.Errorf("tried %v on a %v-node DFG; want IIs %v on the block DFG", m.tried, m.d != nil, iis(mii, mii+2))
		}
		util := float64(d.NumCompute()) / float64(fab.NumPEs()*(mii+2))
		if res.II != mii+2 || res.Config != m.cfg || res.Kernel != k || res.Fabric != fab ||
			fmt.Sprint(res.Block) != fmt.Sprint(block) || res.Utilization != util || res.Time <= 0 {
			t.Errorf("result %+v, want II %d, the step's config and utilization %v", res, mii+2, util)
		}
	})

	t.Run("canceled between IIs", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		m, _, err := run(ctx, func(ii int) error {
			if ii == mii+1 {
				cancel() // the step does not look: the skeleton must
			}
			return diag.Failf(diag.ErrPlacementInfeasible, "fake")
		})
		if fmt.Sprint(m.tried) != fmt.Sprint(iis(mii, mii+1)) {
			t.Errorf("tried %v after a cancellation during II %d", m.tried, mii+1)
		}
		se := stamped(err, diag.ErrCanceled, mii+2)
		if !errors.Is(err, context.Canceled) || se == nil || se.Stage != "fake" {
			t.Errorf("cancellation %v, want stage fake and context.Canceled", err)
		}
	})

	t.Run("canceled in a step", func(t *testing.T) {
		m, _, err := run(context.Background(), func(ii int) error {
			if ii == mii+1 {
				return diag.Fail(diag.ErrCanceled, context.Canceled)
			}
			return diag.Failf(diag.ErrPlacementInfeasible, "fake")
		})
		if fmt.Sprint(m.tried) != fmt.Sprint(iis(mii, mii+1)) {
			t.Errorf("tried %v after a step reported a cancellation at II %d", m.tried, mii+1)
		}
		stamped(err, diag.ErrCanceled, mii+1)
	})

	t.Run("out of IIs", func(t *testing.T) {
		m, _, err := run(context.Background(), func(ii int) error {
			if ii == flat.MaxII {
				return fmt.Errorf("unclassified at II %d", ii)
			}
			return diag.Failf(diag.ErrRouteCongested, "at II %d", ii)
		})
		if fmt.Sprint(m.tried) != fmt.Sprint(iis(mii, flat.MaxII)) {
			t.Errorf("tried %v, want %v", m.tried, iis(mii, flat.MaxII))
		}
		stamped(err, diag.ErrPlacementInfeasible, flat.MaxII)
		if !strings.Contains(err.Error(), fmt.Sprintf("unclassified at II %d", flat.MaxII)) {
			t.Errorf("%v is not the last II's failure", err)
		}
	})

	t.Run("bound past MaxII", func(t *testing.T) {
		short := flat
		short.MaxII = mii - 1
		for _, class := range []error{diag.ErrProvedInfeasible, diag.ErrPlacementInfeasible} {
			short.PastMaxII = class
			m := &fakeMapper{fail: func(int) error { return nil }}
			_, err := Deepen(context.Background(), k, fab, block, short, m.step)
			if len(m.tried) != 0 {
				t.Errorf("tried %v below the bound", m.tried)
			}
			stamped(err, class, mii)
		}
	})

	t.Run("refusals", func(t *testing.T) {
		m := &fakeMapper{fail: func(int) error { return nil }}
		none := arch.DefaultFabric(4, 4)
		none.Mem = arch.MemNone
		_, err := Deepen(context.Background(), k, none, block, flat, m.step)
		var se *diag.StageError
		if !errors.Is(err, diag.ErrMemPortInfeasible) || !errors.As(err, &se) || se.Kernel != "MVT" || se.Stage != "fake" {
			t.Errorf("MVT on %s: %v, want ErrMemPortInfeasible stamped MVT, stage fake", none, err)
		}
		if m.d != nil || len(m.tried) != 0 {
			t.Errorf("a refused request reached the step: tried %v", m.tried)
		}
	})
}
