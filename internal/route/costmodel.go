package route

import (
	"errors"
	"fmt"

	"himap/internal/arch"
	"himap/internal/mrrg"
)

// ErrBadCostModel: a cost model handed to SetCostModel violates the
// pricing invariants the search cores depend on (deci-grid costs, the
// legacy floors, positive capacities).
var ErrBadCostModel = errors.New("invalid cost model")

// CostModel is the congestion-pricing seam of the router: it declares
// the intrinsic cost and the occupancy capacity of every resource node
// class. SetCostModel validates a model once and materializes it into
// flat per-class tables, so the per-edge pricing on the search hot path
// stays two array loads — no interface dispatch per relaxed edge.
//
// Invariants every model must satisfy (enforced by SetCostModel):
//
//   - BaseCost(c) is a positive exact multiple of 0.1 — the Dial bucket
//     queue quantizes accumulated costs onto the deci grid.
//   - BaseCost(c) ≥ the legacy base cost of the class. Admissibility no
//     longer rests on this floor: the A* bound is a lookahead table built
//     from the installed model's own base costs (lookahead.go), exact for
//     whatever they are. The check stays because every built-in model
//     prices the legacy atoms and a cheaper class is a typo, not a model.
//   - Capacity(c) ≥ 1.
type CostModel interface {
	// BaseCost is the intrinsic cost of occupying one node of class c.
	BaseCost(c mrrg.Class) float64
	// Capacity is the congestion-free occupancy of one node of class c.
	Capacity(c mrrg.Class) int
	// Name identifies the model in diagnostics.
	Name() string
}

// UnitModel reproduces the pre-seam hardcoded pricing bit-exactly: unit
// capacity everywhere except the register-file ports, whose capacities
// are pinned at construction (from the CGRA's declared port counts).
// It deliberately ignores the fabric's bandwidth class — it is the
// legacy reference model the differential tests compare against.
type UnitModel struct {
	RFRead, RFWrite int
}

// BaseCost returns the legacy per-class cost table.
func (m UnitModel) BaseCost(c mrrg.Class) float64 { return baseCost(c) }

// Capacity returns the legacy capacities: the pinned RF port counts,
// one everywhere else.
func (m UnitModel) Capacity(c mrrg.Class) int {
	switch c {
	case mrrg.ClassRFRead:
		return m.RFRead
	case mrrg.ClassRFWrite:
		return m.RFWrite
	default:
		return 1
	}
}

// Name identifies the model.
func (m UnitModel) Name() string { return "unit" }

// BandwidthModel prices the fabric's declared resource capacities: link
// capacity on output registers (2 on double-pumped fabrics, 1 on the
// collapsed shared-bus slot) and the bandwidth-narrowed RF port counts.
// Base costs are the same deci-grid atoms as the unit model — the axis
// varies capacities, not intrinsic costs, so the legacy floors hold by
// construction.
type BandwidthModel struct {
	Fab arch.Fabric
}

// BaseCost returns the legacy per-class cost table.
func (m BandwidthModel) BaseCost(c mrrg.Class) float64 { return baseCost(c) }

// Capacity returns the fabric's effective per-class capacities.
func (m BandwidthModel) Capacity(c mrrg.Class) int {
	switch c {
	case mrrg.ClassRFRead:
		return m.Fab.RFReadCap()
	case mrrg.ClassRFWrite:
		return m.Fab.RFWriteCap()
	case mrrg.ClassOut:
		return m.Fab.LinkCapacity()
	default:
		return 1
	}
}

// Name identifies the model.
func (m BandwidthModel) Name() string { return "bandwidth" }

// For selects the cost model matching the graph's fabric: the legacy
// unit model on unit-bandwidth fabrics (keeping default-fabric mappings
// bit-identical to the pre-seam router) and the bandwidth model
// elsewhere. NewSession installs this selection, so every mapper built
// on a Session prices the same model automatically.
func For(g *mrrg.Graph) CostModel {
	if g.Fab.Bandwidth == arch.BWUnit {
		return UnitModel{RFRead: g.Fab.RFReadPorts, RFWrite: g.Fab.RFWritePorts}
	}
	return BandwidthModel{Fab: g.Fab}
}

// SetCostModel validates m against the pricing invariants and installs
// it, materializing its per-class costs and capacities into the
// session's flat tables. Installing a model mid-session is allowed only
// before any occupancy is charged; the capacities a mapping was priced
// under must stay fixed for the whole attempt.
func (s *Session) SetCostModel(m CostModel) error {
	var base [mrrg.NumClasses]float64
	var caps, deci [mrrg.NumClasses]int32
	for ci := 0; ci < mrrg.NumClasses; ci++ {
		c := mrrg.Class(ci)
		b := m.BaseCost(c)
		d := int(b*10 + 0.5)
		if b <= 0 || d < 1 || b*10-float64(d) > 1e-9 || float64(d)-b*10 > 1e-9 {
			return fmt.Errorf("route: model %s: class %s base cost %v is not a positive multiple of 0.1: %w",
				m.Name(), c, b, ErrBadCostModel)
		}
		if b < baseCost(c) {
			return fmt.Errorf("route: model %s: class %s base cost %v below the legacy floor %v: %w",
				m.Name(), c, b, baseCost(c), ErrBadCostModel)
		}
		capa := m.Capacity(c)
		if capa < 1 {
			return fmt.Errorf("route: model %s: class %s capacity %d < 1: %w",
				m.Name(), c, capa, ErrBadCostModel)
		}
		base[ci] = b
		caps[ci] = int32(capa)
		deci[ci] = int32(d)
	}
	s.model = m
	s.baseTab = base
	s.capTab = caps
	s.baseDeci, s.la = deci, nil // the lookahead table is keyed by the base costs
	if s.slotTab == nil {
		s.slotTab = make([]slotInfo, s.G.SlotsPerPE())
	}
	for slot := range s.slotTab {
		cl, idx := s.G.SlotResource(slot)
		occ := slot
		if cl == mrrg.ClassOut && s.G.SharedOut() {
			occ = s.G.SlotIndex(mrrg.ClassOut, 0) // one bus slot for every direction
		}
		kind := classKind[cl]
		if cl == mrrg.ClassOut {
			kind = kindOutFarther // an Out with no link; costToGo splits the rest per target
		}
		s.slotTab[slot] = slotInfo{
			base: base[cl], cap: caps[cl], occ: int32(occ), class: cl, idx: idx, kind: kind,
			key: mrrg.RealKey(mrrg.Node{Class: cl, Idx: idx}) - keyOrigin,
		}
	}
	return nil
}

// CostModel returns the installed pricing model.
func (s *Session) CostModel() CostModel { return s.model }
