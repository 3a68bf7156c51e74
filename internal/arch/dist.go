package arch

// HopDist returns the minimum number of interconnect links a value must
// cross to travel from PE (r1, c1) to PE (r2, c2) under this fabric's
// topology. It is the router's admissible (and, per topology, exact)
// distance lower bound:
//
//   - mesh: Manhattan distance |Δr| + |Δc| (4-neighbor links, no wrap),
//   - torus: wrapped Manhattan distance — each axis independently takes
//     the shorter way around, min(|Δ|, size-|Δ|), which is exact because
//     WrapCoord makes every translation a graph automorphism,
//   - mesh+diagonal: Chebyshev distance max(|Δr|, |Δc|) (a diagonal link
//     advances both axes in one hop).
//
// Coordinates are folded onto the array first on wrap-around topologies,
// so callers may pass unwrapped coordinates.
func (f *Fabric) HopDist(r1, c1, r2, c2 int) int {
	r1, c1 = f.WrapCoord(r1, c1)
	r2, c2 = f.WrapCoord(r2, c2)
	dr, dc := r1-r2, c1-c2
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	switch f.Topology {
	case TopoTorus:
		if w := f.Rows - dr; w < dr {
			dr = w
		}
		if w := f.Cols - dc; w < dc {
			dc = w
		}
		return dr + dc
	case TopoMeshDiag:
		if dc > dr {
			return dc
		}
		return dr
	default:
		return dr + dc
	}
}
