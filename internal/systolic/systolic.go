// Package systolic implements the iteration-space → space-time
// transformation HiMap uses to place the ISDG on the Virtual Systolic
// Array (§V, Eq. 1):
//
//	CP = [H; S] × CI
//
// where H is the 1×l time schedule row and S the 2×l space allocation.
// The paper takes (H,S) as a pre-calculated input found by a heuristic
// search over valid transformations [Lee & Kedem, TPDS'90]; this package
// provides that search: it enumerates block-size-independent *schemes*
// (which loop dimensions become VSA axes, the mixed-radix ordering of the
// remaining dimensions in time, and small time skews of the space
// dimensions), realizes them against a concrete block, and ranks them by
// dependence locality.
package systolic

import (
	"errors"
	"fmt"
	"sort"

	"himap/internal/ir"
	"himap/internal/par"
)

// ErrInfeasible marks a space-time mapping that violates a dependence
// (non-causal or unroutable offset) or the injectivity of the allocation.
// Every Validate/CheckInjective failure wraps it, so callers dispatch
// with errors.Is without parsing messages.
var ErrInfeasible = errors.New("systolic: mapping infeasible")

// Mapping is a realized space-time transformation for a concrete block.
type Mapping struct {
	Dim   int
	H     []int   // time row (length Dim)
	S     [][]int // up to 2 space rows (each length Dim)
	Block []int   // the block it was realized for
	IIS   int     // iterations per systolic PE per block (II_S of §V)
}

// Place returns the space-time position of an iteration: t = H·i,
// (x, y) = S·i (y is 0 for 1-D space allocations).
func (m *Mapping) Place(iter ir.IterVec) (t, x, y int) {
	t = ir.IterVec(m.H).Dot(iter)
	if len(m.S) > 0 {
		x = ir.IterVec(m.S[0]).Dot(iter)
	}
	if len(m.S) > 1 {
		y = ir.IterVec(m.S[1]).Dot(iter)
	}
	return t, x, y
}

// DepOffset returns the space-time offset (tr, xr, yr) of a dependence
// distance vector — the CP difference between consumer and producer.
func (m *Mapping) DepOffset(d ir.IterVec) (tr, xr, yr int) { return m.Place(d) }

// DepClass classifies a dependence offset for the single-cycle single-hop
// requirement of Algorithm 1 (line 16).
type DepClass uint8

const (
	// DepLocal: reaches a neighbor SPE (or stays put) within its time
	// distance without crossing other SPEs — directly routable.
	DepLocal DepClass = iota
	// DepForward: crosses more than one SPE; requires forwarding-path
	// insertion through intermediate iterations.
	DepForward
	// DepInvalid: violates causality or routability (hops > time).
	DepInvalid
)

// Classify returns the class of a dependence under the mapping.
func (m *Mapping) Classify(d ir.IterVec) DepClass {
	tr, xr, yr := m.DepOffset(d)
	hops := abs(xr) + abs(yr)
	switch {
	case tr < 1, hops > tr:
		return DepInvalid
	case hops <= 1:
		return DepLocal
	default:
		return DepForward
	}
}

// ForwardStep decomposes a DepForward distance vector into g equal
// iteration-space steps of one hop each: d = g·e. It returns e and g, or
// an error when d does not decompose (the "impossible to find such
// systolic mapping" case of §V).
func (m *Mapping) ForwardStep(d ir.IterVec) (e ir.IterVec, g int, err error) {
	_, xr, yr := m.DepOffset(d)
	hops := abs(xr) + abs(yr)
	if hops <= 1 {
		return nil, 0, fmt.Errorf("systolic: %v is not a multi-hop dependence: %w", d, ErrInfeasible)
	}
	g = gcdVec(d)
	if g <= 1 {
		return nil, 0, fmt.Errorf("systolic: multi-hop dependence %v does not decompose into unit steps: %w", d, ErrInfeasible)
	}
	e = make(ir.IterVec, len(d))
	for i := range d {
		e[i] = d[i] / g
	}
	etr, exr, eyr := m.DepOffset(e)
	if etr < 1 || abs(exr)+abs(eyr) > 1 {
		return nil, 0, fmt.Errorf("systolic: step %v of dependence %v is not single-hop (offset %d,%d,%d): %w",
			e, d, etr, exr, eyr, ErrInfeasible)
	}
	return e, g, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func gcd(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func gcdVec(v ir.IterVec) int {
	g := 0
	for _, x := range v {
		g = gcd(g, x)
	}
	return g
}

// CheckInjective verifies that no two iterations of the block share a
// space-time position modulo II_S in time — i.e. each SPE executes at
// most one iteration per schedule slot. This is the resource-validity
// condition of the transformation.
func (m *Mapping) CheckInjective() error {
	// (slot, x, y) ranges over a box — x and y are linear in the
	// iteration, so their extremes sit at block corners — and the table
	// over it holds 1 + the point index of the iteration in each slot.
	xlo, xn := m.spaceRange(0)
	ylo, yn := m.spaceRange(1)
	seen := make([]int32, m.IIS*xn*yn)
	var conflict error
	pi := int32(0)
	ir.ForEachPoint(m.Block, func(iter ir.IterVec) {
		if conflict != nil {
			return
		}
		t, x, y := m.Place(iter)
		tm := ((t % m.IIS) + m.IIS) % m.IIS
		at := &seen[(tm*xn+x-xlo)*yn+y-ylo]
		if *at != 0 {
			prev := make(ir.IterVec, len(m.Block))
			for d, rest := len(m.Block)-1, int(*at-1); d >= 0; d-- {
				prev[d], rest = rest%m.Block[d], rest/m.Block[d]
			}
			conflict = fmt.Errorf("%w: iterations %v and %v collide at SPE (%d,%d) slot %d",
				ErrInfeasible, prev, iter, x, y, tm)
			return
		}
		pi++
		*at = pi
	})
	return conflict
}

// spaceRange returns the smallest value space row i takes over the block
// and how many values its range spans (0, 1 for an absent row).
func (m *Mapping) spaceRange(i int) (lo, n int) {
	if i >= len(m.S) {
		return 0, 1
	}
	hi := 0
	for d, s := range m.S[i] {
		if v := s * (m.Block[d] - 1); v < 0 {
			lo += v
		} else {
			hi += v
		}
	}
	return lo, hi - lo + 1
}

// Validate checks causality and routability of every dependence and the
// injectivity of the allocation.
func (m *Mapping) Validate(deps []ir.IterVec) error {
	for _, d := range deps {
		if m.Classify(d) == DepInvalid {
			tr, xr, yr := m.DepOffset(d)
			return fmt.Errorf("%w: dependence %v has invalid offset (t=%d, x=%d, y=%d)", ErrInfeasible, d, tr, xr, yr)
		}
		if m.Classify(d) == DepForward {
			if _, _, err := m.ForwardStep(d); err != nil {
				return err
			}
		}
	}
	return m.CheckInjective()
}

// String renders the mapping matrices.
func (m *Mapping) String() string {
	return fmt.Sprintf("H=%v S=%v (II_S=%d)", m.H, m.S, m.IIS)
}

// Scheme is a block-size-independent transformation template.
type Scheme struct {
	// SpaceDims lists the loop dimensions mapped to the VSA axes
	// (1 or 2 entries, distinct).
	SpaceDims []int
	// TimePerm orders the remaining dimensions for mixed-radix time
	// weights: TimePerm[0] gets weight 1, TimePerm[1] weight
	// block[TimePerm[0]], and so on — guaranteeing injectivity.
	TimePerm []int
	// Skew holds the H coefficients of the space dimensions (parallel to
	// SpaceDims).
	Skew []int
}

// Realize instantiates the scheme for a block.
func (s Scheme) Realize(block []int) *Mapping {
	dim := len(block)
	m := &Mapping{
		Dim:   dim,
		H:     make([]int, dim),
		Block: append([]int(nil), block...),
		IIS:   1,
	}
	w := 1
	for _, d := range s.TimePerm {
		m.H[d] = w
		w *= block[d]
		m.IIS *= block[d]
	}
	for i, d := range s.SpaceDims {
		m.H[d] = s.Skew[i]
		row := make([]int, dim)
		row[d] = 1
		m.S = append(m.S, row)
	}
	if len(m.S) == 1 {
		m.S = append(m.S, make([]int, dim)) // y ≡ 0
	}
	return m
}

// String renders the scheme.
func (s Scheme) String() string {
	return fmt.Sprintf("space=%v time=%v skew=%v", s.SpaceDims, s.TimePerm, s.Skew)
}

// Candidate is a scored, realized scheme.
type Candidate struct {
	Scheme  Scheme
	Mapping *Mapping
	Score   float64 // lower is better
}

// SearchN enumerates valid schemes for the dependence set over the given
// block and returns them ranked: fewer forwarded dependencies first, then
// smaller total time distances (register pressure), then smaller skews.
// wantSpaceDims restricts the number of VSA axes (1 for linear arrays,
// 2 for meshes; 0 = either). The search is sharded over up to workers
// goroutines: each space-dimension assignment (the outermost
// enumeration axis) is scored independently, the per-shard candidate
// lists are concatenated in enumeration order, and the final stable sort
// runs over the merged list — so the ranked result is byte-identical for
// every worker count.
func SearchN(deps []ir.IterVec, block []int, wantSpaceDims, workers int) []Candidate {
	dim := len(block)
	spaceDimSets := [][]int{}
	if wantSpaceDims != 2 {
		for p := 0; p < dim; p++ {
			spaceDimSets = append(spaceDimSets, []int{p})
		}
	}
	if wantSpaceDims != 1 && dim >= 2 {
		for p := 0; p < dim; p++ {
			for q := 0; q < dim; q++ {
				if p != q {
					spaceDimSets = append(spaceDimSets, []int{p, q})
				}
			}
		}
	}

	shards := par.Map(par.Workers(workers), len(spaceDimSets), func(i int) []Candidate {
		sd := spaceDimSets[i]
		var out []Candidate
		try := func(s Scheme) {
			m := s.Realize(block)
			if m.Validate(deps) != nil {
				return
			}
			score := 0.0
			for _, d := range deps {
				tr, xr, yr := m.DepOffset(d)
				hops := abs(xr) + abs(yr)
				if hops > 1 {
					score += 40 + 10*float64(hops)
				}
				score += float64(tr-hops) * 0.5 // holds cost registers
			}
			for _, sk := range s.Skew {
				score += float64(sk) * 0.1
			}
			out = append(out, Candidate{Scheme: s, Mapping: m, Score: score})
		}
		rest := remaining(dim, sd)
		for _, perm := range permutations(rest) {
			forEachSkew(len(sd), 2, func(skew []int) {
				try(Scheme{SpaceDims: sd, TimePerm: perm, Skew: append([]int(nil), skew...)})
			})
		}
		return out
	})
	var out []Candidate
	for _, s := range shards {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score < out[j].Score
		}
		return out[i].Scheme.String() < out[j].Scheme.String()
	})
	return out
}

func remaining(dim int, used []int) []int {
	inUse := map[int]bool{}
	for _, d := range used {
		inUse[d] = true
	}
	var out []int
	for d := 0; d < dim; d++ {
		if !inUse[d] {
			out = append(out, d)
		}
	}
	return out
}

func permutations(xs []int) [][]int {
	if len(xs) == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for i := range xs {
		rest := make([]int, 0, len(xs)-1)
		rest = append(rest, xs[:i]...)
		rest = append(rest, xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]int{xs[i]}, p...))
		}
	}
	return out
}

func forEachSkew(n, max int, fn func([]int)) {
	skew := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			fn(skew)
			return
		}
		for v := 0; v <= max; v++ {
			skew[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}
