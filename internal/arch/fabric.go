package arch

import (
	"fmt"
	"himap/internal/diag"
	"strings"
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

var topoNames = [...]string{"mesh", "torus", "diag"}

// String returns the CLI name of the topology.
func (t Topology) String() string {
	if int(t) < len(topoNames) {
		return topoNames[t]
	}
	return fmt.Sprintf("Topology(%d)", uint8(t))
}

// ParseTopology maps a CLI name to a Topology.
func ParseTopology(s string) (Topology, error) {
	switch strings.ToLower(s) {
	case "mesh", "":
		return TopoMesh, nil
	case "torus":
		return TopoTorus, nil
	case "diag", "mesh+diag", "meshdiag":
		return TopoMeshDiag, nil
	}
	return TopoMesh, fmt.Errorf("arch: unknown topology %q (want %s): %w", s, TopologyNames(), diag.ErrConfigInvalid)
}

// TopologyNames enumerates the accepted -fabric / "topology" values,
// pipe-separated. CLI help text and parse errors both render this, so
// the accepted set cannot drift from the parser.
func TopologyNames() string { return strings.Join(topoNames[:], "|") }

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

var memNames = [...]string{"all", "boundary", "none"}

// String returns the CLI name of the policy.
func (p MemPolicy) String() string {
	if int(p) < len(memNames) {
		return memNames[p]
	}
	return fmt.Sprintf("MemPolicy(%d)", uint8(p))
}

// ParseMemPolicy maps a CLI name to a MemPolicy.
func ParseMemPolicy(s string) (MemPolicy, error) {
	switch strings.ToLower(s) {
	case "all", "":
		return MemAll, nil
	case "boundary":
		return MemBoundary, nil
	case "none":
		return MemNone, nil
	}
	return MemAll, fmt.Errorf("arch: unknown memory policy %q (want %s): %w", s, MemPolicyNames(), diag.ErrConfigInvalid)
}

// MemPolicyNames enumerates the accepted -mem-pes / "mem_pes" values,
// pipe-separated, from the same table the parser and String use.
func MemPolicyNames() string { return strings.Join(memNames[:], "|") }

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

var bwNames = [...]string{"unit", "double", "bus", "narrow-rf"}

// String returns the CLI name of the bandwidth class.
func (b BandwidthClass) String() string {
	if int(b) < len(bwNames) {
		return bwNames[b]
	}
	return fmt.Sprintf("BandwidthClass(%d)", uint8(b))
}

// ParseBandwidth maps a CLI name to a BandwidthClass.
func ParseBandwidth(s string) (BandwidthClass, error) {
	switch strings.ToLower(s) {
	case "unit", "":
		return BWUnit, nil
	case "double":
		return BWDouble, nil
	case "bus":
		return BWBus, nil
	case "narrow-rf", "narrowrf":
		return BWNarrowRF, nil
	}
	return BWUnit, fmt.Errorf("arch: unknown bandwidth class %q (want %s): %w", s, BandwidthNames(), diag.ErrConfigInvalid)
}

// BandwidthNames enumerates the accepted -bandwidth / "bandwidth"
// values, pipe-separated.
func BandwidthNames() string { return strings.Join(bwNames[:], "|") }

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

var costNames = [...]string{"balanced", "low-power", "high-perf"}

// String returns the CLI name of the cost class.
func (cc CostClass) String() string {
	if int(cc) < len(costNames) {
		return costNames[cc]
	}
	return fmt.Sprintf("CostClass(%d)", uint8(cc))
}

// ParseCostClass maps a CLI name to a CostClass.
func ParseCostClass(s string) (CostClass, error) {
	switch strings.ToLower(s) {
	case "balanced", "":
		return CostBalanced, nil
	case "low-power", "lowpower":
		return CostLowPower, nil
	case "high-perf", "highperf":
		return CostHighPerf, nil
	}
	return CostBalanced, fmt.Errorf("arch: unknown cost class %q (want %s): %w", s, CostClassNames(), diag.ErrConfigInvalid)
}

// CostClassNames enumerates the accepted -cost / "cost_class" values,
// pipe-separated.
func CostClassNames() string { return strings.Join(costNames[:], "|") }

// PECaps is the capability class of one PE.
type PECaps uint8

const (
	// CapCompute marks an ALU-capable PE (every PE computes).
	CapCompute PECaps = 1 << iota
	// CapMemory marks a PE with a data-memory port (loads and stores).
	CapMemory
)

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
func (f Fabric) RFReadCap() int {
	switch f.Bandwidth {
	case BWDouble:
		return 2 * f.RFReadPorts
	case BWNarrowRF:
		return 1
	}
	return f.RFReadPorts
}

// RFWriteCap returns the effective register-file write port count under
// this fabric's bandwidth class.
func (f Fabric) RFWriteCap() int {
	switch f.Bandwidth {
	case BWDouble:
		return 2 * f.RFWritePorts
	case BWNarrowRF:
		return 1
	}
	return f.RFWritePorts
}

// Caps returns the capability class of PE (r, c).
func (f Fabric) Caps(r, c int) PECaps {
	caps := CapCompute
	if f.MemCapable(r, c) {
		caps |= CapMemory
	}
	return caps
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
	if int(f.Topology) >= len(topoNames) {
		return fmt.Errorf("arch: bad topology %d: %w", f.Topology, diag.ErrConfigInvalid)
	}
	if int(f.Mem) >= len(memNames) {
		return fmt.Errorf("arch: bad memory policy %d: %w", f.Mem, diag.ErrConfigInvalid)
	}
	if int(f.Bandwidth) >= len(bwNames) {
		return fmt.Errorf("arch: bad bandwidth class %d: %w", f.Bandwidth, diag.ErrConfigInvalid)
	}
	if int(f.Cost) >= len(costNames) {
		return fmt.Errorf("arch: bad cost class %d: %w", f.Cost, diag.ErrConfigInvalid)
	}
	return nil
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
	base := DefaultFabric(rows, cols)
	out := make([]Fabric, 0, 9)
	add := func(mut func(*Fabric)) {
		f := base
		mut(&f)
		out = append(out, f)
	}
	add(func(*Fabric) {})
	add(func(f *Fabric) { f.Topology = TopoTorus })
	add(func(f *Fabric) { f.Topology = TopoMeshDiag })
	add(func(f *Fabric) { f.Mem = MemBoundary })
	add(func(f *Fabric) { f.Bandwidth = BWDouble })
	add(func(f *Fabric) { f.Bandwidth = BWBus })
	add(func(f *Fabric) { f.Bandwidth = BWNarrowRF })
	add(func(f *Fabric) { f.Cost = CostLowPower })
	add(func(f *Fabric) { f.Topology = TopoTorus; f.Cost = CostHighPerf })
	return out
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}
