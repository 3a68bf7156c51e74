package himap

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"himap/internal/arch"
	"himap/internal/kernel"
)

// routerFingerprint renders a mapping to a canonical hash: the
// instruction stream (comments stripped), the II, and the load/store
// I/O specs — the same canonicalization the top-level fabric regression
// pins, so "byte-identical artifact" means the same thing in both.
func routerFingerprint(cfg *arch.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "ii=%d\n", cfg.II)
	for r := 0; r < cfg.Fabric.Rows; r++ {
		for c := 0; c < cfg.Fabric.Cols; c++ {
			for t := 0; t < cfg.II; t++ {
				in := *cfg.At(r, c, t)
				in.Comment = ""
				fmt.Fprintf(h, "r%d c%d t%d %s\n", r, c, t, in.String())
			}
		}
	}
	for _, l := range cfg.Loads {
		fmt.Fprintf(h, "load %+v\n", l)
	}
	for _, s := range cfg.Stores {
		fmt.Fprintf(h, "store %+v\n", s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSharedMemoBounded is the growth regression: a client that varies
// only Kernel.Name (an inline spec per request, through himapd) lands
// every compile on fresh memo keys. 150 GEMM 16×16 compiles through the
// default memo add 1.6M units of ISDG — past memoBudget, so at least one
// reset must happen — and used to leave 266 MB live; the ceiling is 200
// bytes per budget unit (an unrolled node or edge keeps about 135).
func TestSharedMemoBounded(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("150 16x16 compiles holding up to the whole budget live (about 920 MB resident under -race)")
	}
	const compiles, ceiling = 150, 200 * memoBudget
	fab := arch.DefaultFabric(16, 16)
	before := liveHeap()
	for i := 0; i < compiles; i++ {
		k := *kernel.GEMM()
		k.Name = fmt.Sprintf("GEMM-%d", i)
		if _, err := CompileRequest(context.Background(), &k, fab, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if grown := int64(liveHeap()) - int64(before); grown > ceiling {
		t.Errorf("%d distinct-name compiles left %d MB live in the shared memo, ceiling %d MB", compiles, grown>>20, ceiling>>20)
	}
}

// compileWith compiles GEMM on 8x8 against m and returns the result with
// its encoded bitstream.
func compileWith(t *testing.T, m *Memo) (*Result, *arch.Bitstream) {
	t.Helper()
	res, bs, err := compileOn(kernel.GEMM(), arch.DefaultFabric(8, 8), m)
	if err != nil {
		t.Fatal(err)
	}
	return res, bs
}

func compileOn(k *kernel.Kernel, fab arch.Fabric, m *Memo) (*Result, *arch.Bitstream, error) {
	res, err := CompileRequest(context.Background(), k, fab, Options{Workers: 1, Memo: m})
	if err != nil {
		return nil, nil, err
	}
	bs, err := arch.Encode(res.Config)
	return res, bs, err
}

// memoOutcome is everything a compile's caller can observe that the memo
// could change: how many attempts ran and the emitted bitstream, or the
// failure class and the attempts spent reaching it.
type memoOutcome struct {
	attempts int
	failed   error
	bs       *arch.Bitstream
}

func outcomeOn(t *testing.T, k *kernel.Kernel, fab arch.Fabric, m *Memo) memoOutcome {
	t.Helper()
	res, bs, err := compileOn(k, fab, m)
	if err == nil {
		return memoOutcome{attempts: res.Stats.Attempts, bs: bs}
	}
	var ce *CompileError
	if !errors.As(err, &ce) || ce.Primary == nil {
		t.Fatalf("%s on %+v: %v", k.Name, fab.CGRA, err)
	}
	return memoOutcome{attempts: ce.Attempts, failed: ce.Primary.Class}
}

// TestMemoHotEqualsColdAcrossFabrics: two fabrics of one size that
// differ only in a field Fabric.String does not print must not share
// sub-mappings. Each evaluation kernel compiles on the default 4x4 and
// on a variant, in both orders on one shared memo, and every compile
// must end exactly as it does on a fresh memo.
func TestMemoHotEqualsColdAcrossFabrics(t *testing.T) {
	variants := []struct {
		tag string
		mod func(*arch.Fabric)
	}{
		{"depth2", func(f *arch.Fabric) { f.ConfigDepth = 2 }},
		{"depth4", func(f *arch.Fabric) { f.ConfigDepth = 4 }},
		{"regs1", func(f *arch.Fabric) { f.NumRegs = 1 }},
		{"rf1r1w", func(f *arch.Fabric) { f.RFReadPorts, f.RFWritePorts = 1, 1 }},
	}
	base := arch.DefaultFabric(4, 4)
	for _, k := range kernel.Evaluation() {
		coldBase := outcomeOn(t, k, base, NewMemo())
		for _, v := range variants {
			fab := base
			v.mod(&fab)
			coldVar := outcomeOn(t, k, fab, NewMemo())
			check := func(order string, got, cold memoOutcome) {
				if !reflect.DeepEqual(got, cold) {
					t.Errorf("%s, %s: attempts %d failed %v; on a fresh memo attempts %d failed %v",
						k.Name, order, got.attempts, got.failed, cold.attempts, cold.failed)
				}
			}
			m := NewMemo()
			check(v.tag+" first", outcomeOn(t, k, fab, m), coldVar)
			check("default after "+v.tag, outcomeOn(t, k, base, m), coldBase)
			m = NewMemo()
			outcomeOn(t, k, base, m)
			check(v.tag+" after default", outcomeOn(t, k, fab, m), coldVar)
		}
	}
}

// TestMemoResetKeepsOutput: artifacts are pure functions of their key,
// so a compile after a reset rebuilds everything (the misses double) and
// emits the same bitstream and the same mapping fingerprint.
func TestMemoResetKeepsOutput(t *testing.T) {
	m := NewMemo()
	first, firstBS := compileWith(t, m)
	_, cold := m.Stats()
	m.mu.Lock()
	m.entries, m.weight = nil, 0
	m.mu.Unlock()
	second, secondBS := compileWith(t, m)
	if _, misses := m.Stats(); misses != 2*cold {
		t.Errorf("misses %d after the reset, want %d: the second compile did not rebuild every artifact", misses, 2*cold)
	}
	if !reflect.DeepEqual(firstBS, secondBS) {
		t.Error("bitstream changed across a memo reset")
	}
	if a, b := routerFingerprint(first.Config), routerFingerprint(second.Config); a != b {
		t.Errorf("mapping fingerprint changed across a memo reset: %s vs %s", a, b)
	}
}

// TestMemoArtifactOverBudget: with a budget every entry exceeds, each
// computed artifact resets the memo and is still handed to its caller,
// so the compile succeeds with the output of an unbounded memo.
func TestMemoArtifactOverBudget(t *testing.T) {
	tiny := &Memo{budget: 1}
	dfg, isdg, err := tiny.ISDG(kernel.GEMM(), []int{4, 4, 4})
	if err != nil || dfg == nil || isdg == nil {
		t.Fatalf("over-budget ISDG not returned: %v, %v, %v", dfg, isdg, err)
	}
	if tiny.weight != 0 {
		t.Errorf("weight %d after an over-budget artifact, want a reset to 0", tiny.weight)
	}
	got, gotBS := compileWith(t, tiny)
	want, wantBS := compileWith(t, NewMemo())
	if !reflect.DeepEqual(gotBS, wantBS) || routerFingerprint(got.Config) != routerFingerprint(want.Config) {
		t.Error("compile against an always-resetting memo differs from a fresh-memo compile")
	}
	// Resets racing with lookups from concurrent compiles (himapd's
	// request goroutines share one memo) change nothing either.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := CompileRequest(context.Background(), kernel.GEMM(), arch.DefaultFabric(8, 8), Options{Workers: 2, Memo: tiny})
			if err != nil {
				t.Error(err)
				return
			}
			if routerFingerprint(res.Config) != routerFingerprint(want.Config) {
				t.Error("concurrent compile against an always-resetting memo differs from a fresh-memo compile")
			}
		}()
	}
	wg.Wait()
}
