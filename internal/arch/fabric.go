package arch

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"himap/internal/diag"
)

// Topology selects the link provider of a fabric: which typed directed
// links exist between PEs. Links are enumerated per PE as (direction,
// neighbor) pairs; consumers iterate the fabric's direction set instead
// of assuming the fixed 4-neighbor mesh.
type Topology uint8

const (
	// TopoMesh is the classic 4-neighbor mesh with no wrap-around.
	TopoMesh Topology = iota
	// TopoTorus is the 4-neighbor mesh with wrap-around links on both
	// axes. Wrap-around makes every translation of the array a graph
	// automorphism, which is what lets replication reuse canonical
	// routes verbatim (coordinates wrap instead of falling off edges).
	TopoTorus
	// TopoMeshDiag is the mesh plus the four diagonal links (HyCUBE-
	// style richer interconnect); no wrap-around.
	TopoMeshDiag
)

// NumDirs returns how many link directions the topology uses per PE.
func (t Topology) NumDirs() int {
	if t == TopoMeshDiag {
		return int(MaxDirs)
	}
	return int(NumDirs)
}

// Wraps reports whether links wrap around the array edges.
func (t Topology) Wraps() bool { return t == TopoTorus }

// MemPolicy selects which PEs carry a memory port (load/store capable).
type MemPolicy uint8

const (
	// MemAll gives every PE a memory port — the idealized homogeneous
	// array the paper's evaluation architecture assumes (§VI).
	MemAll MemPolicy = iota
	// MemBoundary restricts memory ports to the boundary columns
	// (column 0 and column Cols-1) — the classic HyCUBE-style layout
	// where only edge PEs reach the data memory banks.
	MemBoundary
	// MemNone removes memory ports entirely. It arises for interior
	// tiles cut from a boundary-mem fabric and is only usable by
	// kernels without memory operations.
	MemNone
)

// BandwidthClass selects the link bandwidth model of a fabric: how many
// simultaneous values each inter-PE link (and each register-file port)
// carries per cycle. It generalizes the implicit "one value per link per
// cycle" assumption into a declared resource the router prices. The zero
// value reproduces the legacy model exactly.
type BandwidthClass uint8

const (
	// BWUnit is the legacy model: every link carries one value per
	// cycle and register files keep their declared port counts.
	BWUnit BandwidthClass = iota
	// BWDouble double-pumps the PE-local register file: the effective
	// read and write port counts are twice the declared ones, relaxing
	// the RF bottleneck. Inter-PE links still carry one value per cycle
	// — the configuration word encodes a single output selection per
	// link per cycle, so link capacity is not an expressible axis.
	BWDouble
	// BWBus replaces the per-direction output registers with a single
	// shared egress register per PE: at most one outgoing link departs
	// per cycle (single-driver bus). Fanout to several neighbors takes
	// successive cycles, one drive each.
	BWBus
	// BWNarrowRF narrows the register file to one read and one write
	// port per cycle regardless of the declared port counts.
	BWNarrowRF
)

// CostClass selects the per-PE cost model of a fabric: the silicon
// corner the array is implemented in. It scales the power model (clock,
// static and per-activity dynamic power) without changing routing. The
// zero value is the balanced 40 nm corner the paper evaluates.
type CostClass uint8

const (
	// CostBalanced is the default corner; power.ModelFor returns the
	// paper's 40 nm model unchanged.
	CostBalanced CostClass = iota
	// CostLowPower is a low-leakage corner: slower clock, markedly
	// lower static and dynamic power.
	CostLowPower
	// CostHighPerf is a high-frequency corner: faster clock at a
	// superlinear power premium.
	CostHighPerf
)

// classNames is the vocabulary of one fabric class. names[v] renders
// value v and names[0] is the default that the empty string selects;
// aliases are further spellings the parser accepts, and every spelling
// matches in any letter case. The one table per class serves String,
// parsing, the "|"-joined list that help text and parse errors show,
// and Fabric.Validate's range check, so none of them can drift from the
// others.
type classNames[T ~uint8] struct {
	kind    string // the Go type, for String's out-of-range form
	noun    string // the class, as errors name it
	names   []string
	aliases map[string]T
}

var (
	topoNames = classNames[Topology]{"Topology", "topology", []string{"mesh", "torus", "diag"},
		map[string]Topology{"mesh+diag": TopoMeshDiag, "meshdiag": TopoMeshDiag}}
	memNames = classNames[MemPolicy]{"MemPolicy", "memory policy", []string{"all", "boundary", "none"}, nil}
	bwNames  = classNames[BandwidthClass]{"BandwidthClass", "bandwidth class", []string{"unit", "double", "bus", "narrow-rf"},
		map[string]BandwidthClass{"narrowrf": BWNarrowRF}}
	costNames = classNames[CostClass]{"CostClass", "cost class", []string{"balanced", "low-power", "high-perf"},
		map[string]CostClass{"lowpower": CostLowPower, "highperf": CostHighPerf}}
)

func (c *classNames[T]) str(v T) string {
	if int(v) < len(c.names) {
		return c.names[v]
	}
	return fmt.Sprintf("%s(%d)", c.kind, uint8(v))
}

func (c *classNames[T]) list() string { return strings.Join(c.names, "|") }

func (c *classNames[T]) parse(s string) (T, error) {
	l := strings.ToLower(s)
	if i := slices.Index(c.names, l); i >= 0 {
		return T(i), nil
	}
	if v, ok := c.aliases[l]; ok || l == "" { // "" misses the map: v is 0, the default
		return v, nil
	}
	return 0, fmt.Errorf("arch: unknown %s %q (want %s): %w", c.noun, s, c.list(), diag.ErrConfigInvalid)
}

func (c *classNames[T]) check(v T) error {
	if int(v) < len(c.names) {
		return nil
	}
	return fmt.Errorf("arch: bad %s %d: %w", c.noun, v, diag.ErrConfigInvalid)
}

// String returns the CLI name of the topology.
func (t Topology) String() string { return topoNames.str(t) }

// String returns the CLI name of the policy.
func (p MemPolicy) String() string { return memNames.str(p) }

// String returns the CLI name of the bandwidth class.
func (b BandwidthClass) String() string { return bwNames.str(b) }

// String returns the CLI name of the cost class.
func (cc CostClass) String() string { return costNames.str(cc) }

// ParseFabric builds the fabric on array cg from the names of its four
// classes: the one parse behind the CLI's flags, the wire's fabric
// object and the configuration file. An unknown name fails with
// ErrConfigInvalid, checked in the argument order. The array itself is
// not validated.
func ParseFabric(cg CGRA, topology, mem, bandwidth, cost string) (Fabric, error) {
	f := Fabric{CGRA: cg}
	var errs [4]error
	f.Topology, errs[0] = topoNames.parse(topology)
	f.Mem, errs[1] = memNames.parse(mem)
	f.Bandwidth, errs[2] = bwNames.parse(bandwidth)
	f.Cost, errs[3] = costNames.parse(cost)
	if err := cmp.Or(errs[:]...); err != nil {
		return Fabric{}, err
	}
	return f, nil
}

// FabricNames returns each class's accepted names, "|"-joined, for help
// text; a parse error lists the same.
func FabricNames() (topology, mem, bandwidth, cost string) {
	return topoNames.list(), memNames.list(), bwNames.list(), costNames.list()
}

// Fabric is the full architecture model: the PE array parameters (CGRA)
// plus the interconnect topology, the per-PE capability layout, the link
// bandwidth class, and the PE cost class. The zero values of all four
// axes reproduce the pre-Fabric model (mesh links, every PE
// memory-capable, unit bandwidth, balanced cost), so Fabric{CGRA: cg}
// is a drop-in upgrade.
//
// Fabric is a comparable value type (no slices or maps) so it can key
// memo tables and print deterministically with %+v.
type Fabric struct {
	CGRA
	Topology  Topology
	Mem       MemPolicy
	Bandwidth BandwidthClass
	Cost      CostClass
}

// DefaultFabric returns the evaluation architecture of §VI as a fabric:
// mesh links, every PE memory-capable.
func DefaultFabric(rows, cols int) Fabric {
	return Fabric{CGRA: Default(rows, cols)}
}

// NumLinkDirs returns how many direction slots this fabric's PEs use.
func (f Fabric) NumLinkDirs() int { return f.Topology.NumDirs() }

// LinkCapacity returns how many distinct values one inter-PE link
// carries per cycle. This is 1 for every bandwidth class: each link's
// output register holds a single value per cycle and the configuration
// word encodes a single source selection per link per cycle, so no
// class can widen it. Bandwidth classes instead act on the register
// file (BWDouble, BWNarrowRF) or share the egress lane (BWBus). The
// helper stays as the seam the routing capacity model and the
// feasibility pre-check read, rather than hardcoding 1 at each site.
func (f Fabric) LinkCapacity() int { return 1 }

// SharedOutBus reports whether all output directions of a PE share one
// egress lane per cycle (BWBus). When true the MRRG collapses the
// per-direction output registers of a PE into a single routing resource.
func (f Fabric) SharedOutBus() bool { return f.Bandwidth == BWBus }

// RFReadCap returns the effective register-file read port count under
// this fabric's bandwidth class.
func (f Fabric) RFReadCap() int { return f.rfCap(f.RFReadPorts) }

// RFWriteCap returns the effective register-file write port count under
// this fabric's bandwidth class.
func (f Fabric) RFWriteCap() int { return f.rfCap(f.RFWritePorts) }

func (f Fabric) rfCap(ports int) int {
	switch f.Bandwidth {
	case BWDouble:
		return 2 * ports
	case BWNarrowRF:
		return 1
	}
	return ports
}

// MemCapable reports whether PE (r, c) has a memory port.
func (f Fabric) MemCapable(r, c int) bool {
	switch f.Mem {
	case MemAll:
		return true
	case MemBoundary:
		return c == 0 || c == f.Cols-1
	}
	return false
}

// Uniform reports whether every PE has the same capability class.
func (f Fabric) Uniform() bool {
	switch f.Mem {
	case MemAll, MemNone:
		return true
	}
	return f.Cols <= 2 // boundary columns cover the whole array
}

// NumMemPEs returns how many PEs carry a memory port.
func (f Fabric) NumMemPEs() int {
	switch f.Mem {
	case MemAll:
		return f.NumPEs()
	case MemBoundary:
		if f.Cols <= 2 {
			return f.NumPEs()
		}
		return 2 * f.Rows
	}
	return 0
}

// MemPEs returns the memory-capable PE coordinates in row-major order.
func (f Fabric) MemPEs() [][2]int {
	var out [][2]int
	for r := 0; r < f.Rows; r++ {
		for c := 0; c < f.Cols; c++ {
			if f.MemCapable(r, c) {
				out = append(out, [2]int{r, c})
			}
		}
	}
	return out
}

// WrapCoord folds (r, c) back into the array for wrap-around
// topologies; for bounded topologies it returns the coordinate
// unchanged.
func (f Fabric) WrapCoord(r, c int) (int, int) {
	if !f.Topology.Wraps() {
		return r, c
	}
	return mod(r, f.Rows), mod(c, f.Cols)
}

// LinkNeighbor returns the PE reached from (r, c) over the link in
// direction d under this fabric's topology, and whether the link exists.
// On a torus the coordinate wraps; self-links (wrap in a dimension of
// size 1) are suppressed.
func (f Fabric) LinkNeighbor(r, c int, d Dir) (nr, nc int, ok bool) {
	if int(d) >= f.NumLinkDirs() {
		return 0, 0, false
	}
	dr, dc := d.Delta()
	nr, nc = r+dr, c+dc
	if f.InBounds(nr, nc) {
		return nr, nc, true
	}
	if !f.Topology.Wraps() {
		return nr, nc, false
	}
	nr, nc = mod(nr, f.Rows), mod(nc, f.Cols)
	if nr == r && nc == c {
		return nr, nc, false // wrap in a size-1 dimension is a self-link
	}
	return nr, nc, true
}

// MaxSide bounds Rows and Cols: the routing graph's node keys
// (mrrg.RealKey) pack each coordinate into eight bits.
const MaxSide = 256

// Validate checks the fabric parameters, including the sizes the routing
// graph's packed node keys can hold.
func (f Fabric) Validate() error {
	if err := f.CGRA.Validate(); err != nil {
		return err
	}
	if f.Rows > MaxSide || f.Cols > MaxSide {
		return fmt.Errorf("arch: array %dx%d exceeds the routable %d-per-side bound: %w", f.Rows, f.Cols, MaxSide, diag.ErrConfigInvalid)
	}
	if f.NumRegs > maxRegs {
		return fmt.Errorf("arch: %d registers exceed the routable bound of %d: %w", f.NumRegs, maxRegs, diag.ErrConfigInvalid)
	}
	return cmp.Or(topoNames.check(f.Topology), memNames.check(f.Mem), bwNames.check(f.Bandwidth), costNames.check(f.Cost))
}

// String renders the fabric. The default mesh/all-mem/unit-bandwidth/
// balanced-cost fabric renders exactly like the bare array size ("8x8")
// so diagnostics and error stamps are unchanged from the pre-Fabric
// model; other fabrics append the axes that differ from the default.
func (f Fabric) String() string {
	s := f.CGRA.String()
	if f.Topology != TopoMesh || f.Mem != MemAll {
		s = fmt.Sprintf("%s/%s/mem-%s", s, f.Topology, f.Mem)
	}
	if f.Bandwidth != BWUnit {
		s += "/bw-" + f.Bandwidth.String()
	}
	if f.Cost != CostBalanced {
		s += "/cost-" + f.Cost.String()
	}
	return s
}

// ExploreFabrics returns the default design-space candidate set for a
// rows×cols array: one fabric per interesting point on each axis
// (topology, memory layout, bandwidth, cost corner). The set is
// deterministic and intentionally includes bandwidth-constrained points
// that may be infeasible for some kernels — an explore sweep reports
// those as typed failures rather than omitting them.
func ExploreFabrics(rows, cols int) []Fabric {
	cg := Default(rows, cols)
	return []Fabric{
		{CGRA: cg},
		{CGRA: cg, Topology: TopoTorus},
		{CGRA: cg, Topology: TopoMeshDiag},
		{CGRA: cg, Mem: MemBoundary},
		{CGRA: cg, Bandwidth: BWDouble},
		{CGRA: cg, Bandwidth: BWBus},
		{CGRA: cg, Bandwidth: BWNarrowRF},
		{CGRA: cg, Cost: CostLowPower},
		{CGRA: cg, Topology: TopoTorus, Cost: CostHighPerf},
	}
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}
