package himap

import (
	"fmt"
	"strings"
	"sync"

	"himap/internal/arch"
	"himap/internal/ir"
	"himap/internal/kernel"
	"himap/internal/systolic"
)

// Memo is the compilation artifact cache. It content-keys and reuses the
// expensive pure derivations of the pipeline:
//
//   - the generic IDFG of a kernel (idfg-map stage),
//   - the sub-CGRA mapping list per (kernel, fabric),
//   - the ranked systolic scheme candidates per (kernel, VSA axis count), and
//   - the unrolled DFG/ISDG per (kernel, block vector), shared both
//     across the speculative attempts of one compile (attempts trying
//     different schemes over the same block) and across repeated
//     compiles (the experiments harness, sweeps, future server
//     batching).
//
// All cached artifacts are read-only by pipeline contract: every stage
// that transforms one (e.g. forwarding) builds a new object instead of
// mutating, so sharing across concurrent attempts and compiles is safe.
// Keys hash the kernel specification content (not pointer identity), so
// two structurally identical Kernel values share entries and a modified
// copy does not.
//
// Entries are computed under a per-key once, so concurrent attempts (or
// concurrent Compile calls) requesting the same artifact build it
// exactly once and share the result.
//
// The cache is bounded: every computed entry adds its weight (1, plus
// its key text in 128-byte units, plus DFG nodes + edges for an ISDG),
// and once the total passes the budget every entry is dropped together.
// Artifacts are pure functions of their key, so a reset changes what is
// rebuilt, never what is returned; compiles in flight keep the artifacts
// they already hold.
type Memo struct {
	mu           sync.Mutex
	entries      map[memoKey]*memoEntry // replaced wholesale by a reset
	weight       int64                  // of the artifacts computed into entries
	budget       int64                  // 0 means memoBudget; tests lower it
	hits, misses int64
}

// memoKey identifies one artifact. It is compared as a value, so an
// input an artifact depends on is either a field here or spelled out in
// text — never a rendering that may leave part of it out.
type memoKey struct {
	kind byte        // 'i' IDFG, 'm' sub-mappings, 's' scheme candidates, 'd' DFG/ISDG
	text string      // kernelKey, then the artifact's scalar parameters
	fab  arch.Fabric // sub-mappings only: MapIDFG reads every field
}

// memoBudget is the weight a Memo holds before it resets. An unrolled
// node or edge keeps about 112 bytes live (GEMM 112, FW 112, MVT 114,
// ADI 110 at 16 per dimension: the DFG's node slab, CSR adjacency and
// node table, 4 bytes per point and row, 115 KB of GEMM's 4.7 MB; the
// ISDG's clusters), so this is roughly 117 MB: seven times what the
// serve_mix workload of BENCHMARK.json leaves in the shared memo (about
// 150k) and six times the heaviest single compile any workload runs
// (GEMM 64×64, 169k), so a reset only ever answers unbounded key churn —
// a client varying an inline spec per request.
const memoBudget = 1 << 20

type isdgArtifact struct {
	dfg  *ir.DFG
	isdg *ir.ISDG
}

type memoEntry struct {
	once sync.Once
	val  any
	err  error
}

// sharedMemo backs every Compile whose Options do not inject their own.
var sharedMemo = NewMemo()

// NewMemo returns an empty artifact cache. Most callers should leave
// Options.Memo nil and share the process-wide cache; benchmarks and
// tests inject fresh ones to measure or isolate the cold path.
func NewMemo() *Memo { return &Memo{} }

// Stats reports cumulative hit/miss counts (an entry computed under the
// once counts one miss; every other arrival counts a hit).
func (m *Memo) Stats() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// load returns the artifact under key, computing it at most once per
// generation of entries (outside the lock, under the entry's once). The
// call that computed the entry charges its weight: 1 and the key text
// for every entry, cached errors included, plus weigh(artifact) where
// the artifact's size is worth counting (nil otherwise). The call that
// takes the total past the budget resets the memo and still returns its
// artifact.
func (m *Memo) load(key memoKey, weigh func(any) int64, compute func() (any, error)) (any, error) {
	m.mu.Lock()
	ent, loaded := m.entries[key]
	if !loaded {
		if m.entries == nil {
			m.entries = map[memoKey]*memoEntry{}
		}
		ent = &memoEntry{}
		m.entries[key] = ent
	}
	m.mu.Unlock()
	computed := false
	ent.once.Do(func() {
		ent.val, ent.err = compute()
		computed = true
	})
	m.mu.Lock()
	if computed || !loaded {
		m.misses++
	} else {
		m.hits++
	}
	if computed {
		m.weight += int64(1 + len(key.text)/128)
		if weigh != nil && ent.err == nil {
			m.weight += weigh(ent.val)
		}
		budget := m.budget
		if budget == 0 {
			budget = memoBudget
		}
		if m.weight > budget {
			m.entries, m.weight = nil, 0
		}
	}
	m.mu.Unlock()
	return ent.val, ent.err
}

// IDFG returns (building at most once) the kernel's generic IDFG.
func (m *Memo) IDFG(k *kernel.Kernel) (*ir.IDFG, error) {
	v, err := m.load(memoKey{kind: 'i', text: kernelKey(k)}, nil, func() (any, error) {
		return k.GenericIDFG()
	})
	if err != nil {
		return nil, err
	}
	return v.(*ir.IDFG), nil
}

// SubMappings returns the full MapIDFG result for the kernel on the
// fabric. Every compile of the kernel on the fabric shares it, so callers
// must not mutate the returned slice or its entries: runIDFGMap keeps a
// re-sliced prefix, not a copy.
func (m *Memo) SubMappings(k *kernel.Kernel, f *ir.IDFG, fab arch.Fabric) ([]*SubMapping, error) {
	key := memoKey{kind: 'm', text: kernelKey(k), fab: fab}
	v, err := m.load(key, nil, func() (any, error) {
		subs, err := MapIDFG(f, fab, depthSlack)
		if err != nil {
			return nil, err
		}
		return subs, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]*SubMapping), nil
}

// Schemes returns the ranked systolic scheme candidates for the kernel on
// a VSA with axes space axes (1 or 2). The ranking reads only the
// kernel's dependences and the axis count — Workers only shards the
// search, never changes its merged output (pinned by
// TestWorkersDeterminism) — so the key is the kernel and the axis count.
func (m *Memo) Schemes(k *kernel.Kernel, deps []ir.IterVec, axes, workers int) []systolic.Scheme {
	key := memoKey{kind: 's', text: fmt.Sprintf("%s|a%d", kernelKey(k), axes)}
	v, _ := m.load(key, nil, func() (any, error) {
		return candidateSchemes(k, deps, axes, workers), nil
	})
	return v.([]systolic.Scheme)
}

// ISDG returns (building at most once) the kernel's unrolled DFG and
// ISDG for a block vector.
func (m *Memo) ISDG(k *kernel.Kernel, block []int) (*ir.DFG, *ir.ISDG, error) {
	key := memoKey{kind: 'd', text: fmt.Sprintf("%s|b%v", kernelKey(k), block)}
	size := func(v any) int64 {
		dfg := v.(isdgArtifact).dfg
		return int64(len(dfg.Nodes) + len(dfg.Edges))
	}
	v, err := m.load(key, size, func() (any, error) {
		dfg, isdg, err := k.BuildISDG(block)
		if err != nil {
			return nil, err
		}
		return isdgArtifact{dfg: dfg, isdg: isdg}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	a := v.(isdgArtifact)
	return a.dfg, a.isdg, nil
}

// kernelKey renders the content identity of a kernel specification: every
// field that determines DFG construction and hence every downstream
// artifact (name and dimensionality, block constraints, and the complete
// body — op kinds, operand source structure, affine maps, predicates,
// constants, and store rules). Tensor extent functions and the Prepare
// hook affect only input generation, never the mapped structure, so they
// are deliberately excluded.
func kernelKey(k *kernel.Kernel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s|d%d|m%d|f%v|", k.Name, k.Suite, k.Dim, k.MinBlock, k.FixedBlock)
	writeInput := func(in kernel.Input) {
		for _, c := range in {
			fmt.Fprintf(&b, "w%v:", c.When)
			s := c.Src
			fmt.Fprintf(&b, "k%d,o%d,d%v,t%s,m%v+%v,v%d;", s.Kind, s.Op, s.Dist, s.Tensor, s.Map.Coef, s.Map.Off, s.Value)
		}
	}
	for i, op := range k.Body {
		fmt.Fprintf(&b, "[%d:%s:%d|A:", i, op.Name, op.Kind)
		writeInput(op.A)
		b.WriteString("|B:")
		writeInput(op.B)
		b.WriteString("|S:")
		for _, st := range op.Stores {
			fmt.Fprintf(&b, "w%v>%s,m%v+%v;", st.When, st.Tensor, st.Map.Coef, st.Map.Off)
		}
		b.WriteString("]")
	}
	return b.String()
}
