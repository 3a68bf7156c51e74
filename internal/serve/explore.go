package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"himap"
	"himap/internal/diag"
)

// BuildFabric converts a wire fabric specification into the fabric the
// server compiles, applying the array-size bound and strict enumeration
// parsing. Shared by /v1/compile and every /v1/explore candidate.
func BuildFabric(f FabricSpec, cfg Config) (himap.Fabric, error) {
	cfg = cfg.withDefaults()
	var fab himap.Fabric
	if f.Rows < 2 || f.Cols < 2 || f.Rows > cfg.MaxArraySide || f.Cols > cfg.MaxArraySide {
		return fab, fmt.Errorf("%w: fabric %dx%d outside [2,%d]", ErrBadRequest, f.Rows, f.Cols, cfg.MaxArraySide)
	}
	topo, err := himap.ParseTopology(f.Topology)
	if err != nil {
		return fab, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	mem, err := himap.ParseMemPolicy(f.MemPEs)
	if err != nil {
		return fab, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	bw, err := himap.ParseBandwidth(f.Bandwidth)
	if err != nil {
		return fab, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	cost, err := himap.ParseCostClass(f.CostClass)
	if err != nil {
		return fab, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	fab = himap.DefaultFabric(f.Rows, f.Cols)
	fab.Topology = topo
	fab.Mem = mem
	fab.Bandwidth = bw
	fab.Cost = cost
	return fab, nil
}

// fabricSpecOf renders a fabric back into its canonical wire form —
// default enumerations stay empty so the spec round-trips through
// CacheKey identically to a client writing the minimal JSON.
func fabricSpecOf(fab himap.Fabric) FabricSpec {
	fs := FabricSpec{Rows: fab.Rows, Cols: fab.Cols}
	if fab.Topology != himap.TopoMesh {
		fs.Topology = fab.Topology.String()
	}
	if fab.Mem != himap.MemAll {
		fs.MemPEs = fab.Mem.String()
	}
	if fab.Bandwidth != himap.BWUnit {
		fs.Bandwidth = fab.Bandwidth.String()
	}
	if fab.Cost != himap.CostBalanced {
		fs.CostClass = fab.Cost.String()
	}
	return fs
}

// exploreCandidates resolves the request's fabric set: an explicit list
// (validated up front, so one bad spec rejects the whole request before
// any compile runs) or the default design-space candidates of a
// Rows×Cols array.
func (s *Server) exploreCandidates(wire *ExploreRequestWire) ([]FabricSpec, error) {
	if len(wire.Fabrics) > 0 {
		if wire.Rows != 0 || wire.Cols != 0 {
			return nil, fmt.Errorf("%w: rows/cols and an explicit fabrics list are mutually exclusive", ErrBadRequest)
		}
		if len(wire.Fabrics) > s.cfg.MaxExploreFabrics {
			return nil, fmt.Errorf("%w: %d fabrics exceed the explore limit %d",
				ErrBadRequest, len(wire.Fabrics), s.cfg.MaxExploreFabrics)
		}
		for i, fs := range wire.Fabrics {
			if _, err := BuildFabric(fs, s.cfg); err != nil {
				return nil, fmt.Errorf("fabrics[%d]: %w", i, err)
			}
		}
		return wire.Fabrics, nil
	}
	if wire.Rows < 2 || wire.Cols < 2 || wire.Rows > s.cfg.MaxArraySide || wire.Cols > s.cfg.MaxArraySide {
		return nil, fmt.Errorf("%w: explore array %dx%d outside [2,%d]", ErrBadRequest, wire.Rows, wire.Cols, s.cfg.MaxArraySide)
	}
	fabs := himap.ExploreFabrics(wire.Rows, wire.Cols)
	if len(fabs) > s.cfg.MaxExploreFabrics {
		fabs = fabs[:s.cfg.MaxExploreFabrics]
	}
	specs := make([]FabricSpec, len(fabs))
	for i, fab := range fabs {
		specs[i] = fabricSpecOf(fab)
	}
	return specs, nil
}

// candidate is the /v1/compile request one fabric of the sweep stands
// for: it validates the kernel selection and content-addresses the
// candidate's cache entry.
func (wire *ExploreRequestWire) candidate(fs FabricSpec) *CompileRequestWire {
	return &CompileRequestWire{
		Kernel:  wire.Kernel,
		Spec:    wire.Spec,
		Fabric:  fs,
		Options: OptionsSpec{InnerBlock: wire.Options.InnerBlock},
	}
}

// handleExplore sweeps one kernel across the candidate fabrics and
// returns every outcome ranked: successes by efficiency (desc), then II
// (asc), then fabric name; failures after, by fabric name. Each
// candidate is one admitted, cached compile — repeated sweeps over a
// warm cache are pure cache hits, and a sweep sharing fabrics with past
// /v1/explore requests reuses their entries.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	s.metrics.explores.Add(1)
	wire, err := DecodeExploreRequest(r.Body)
	if err != nil {
		s.reject(w, err)
		return
	}
	specs, err := s.exploreCandidates(wire)
	if err != nil {
		s.reject(w, err)
		return
	}
	// Validate the kernel once up front through the first candidate;
	// the others differ only in their (already validated) fabric.
	if _, err := BuildRequest(wire.candidate(specs[0]), s.cfg); err != nil {
		s.reject(w, err)
		return
	}

	// One deadline for the whole sweep, not each candidate.
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(wire.Options.TimeoutMS))
	defer cancel()

	resp := ExploreResponse{SchemaVersion: SchemaVersion, Kernel: wire.Kernel, Entries: make([]ExploreEntry, len(specs))}
	if wire.Spec != nil {
		resp.Kernel = wire.Spec.Name
	}
	for i, fs := range specs {
		resp.Entries[i] = s.exploreEntry(ctx, wire.candidate(fs))
	}
	rankExplore(resp.Entries)
	body, err := json.Marshal(resp)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, append(body, '\n'), "")
}

// exploreEntry resolves one fabric candidate: cache lookup under the
// explore namespace, else one compile priced by the fabric's power
// model, with the per-stage wall-clock broken out from a dedicated
// tracer. Deterministic outcomes (success and compile infeasibility
// alike) are cached; deadline and overload outcomes are not, so a retry
// after transient pressure re-runs the candidate.
func (s *Server) exploreEntry(ctx context.Context, creq *CompileRequestWire) ExploreEntry {
	key := "explore:" + CacheKey(creq)
	if body, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Add(1)
		var e ExploreEntry
		if json.Unmarshal(body, &e) == nil {
			return e
		}
	}
	s.metrics.cacheMisses.Add(1)

	hreq, err := BuildRequest(creq, s.cfg)
	fab := hreq.Fabric
	e := ExploreEntry{Fabric: fab.String()}
	if err != nil {
		// Candidates were validated up front; reaching this means the
		// compile limits changed between validation and execution.
		_, eb := classify(err)
		e.Error = &eb
		return e
	}
	col := diag.NewCollector()
	res, err := s.execute(ctx, hreq, col, nil)
	e.StageMS = map[string]float64{}
	for stage, d := range col.StageWall() {
		e.StageMS[stage] = float64(d.Microseconds()) / 1000
	}
	if err != nil {
		_, eb := classify(err)
		e.Error = &eb
		if eb.Code == "deadline" || eb.Code == CodeOverloaded {
			return e
		}
	} else {
		model := himap.PowerModelFor(fab)
		e.OK = true
		e.II = res.Config.II
		e.Block = res.Block
		e.Utilization = res.Utilization
		e.MOPS = model.PerformanceMOPS(res.Config)
		e.PowerMW = model.PowerMW(res.Config)
		e.Eff = model.EfficiencyMOPSPerMW(res.Config)
	}
	if body, err := json.Marshal(e); err == nil {
		s.cache.put(key, body)
	}
	return e
}

// rankExplore orders entries deterministically: successes by power
// efficiency (desc), II (asc), fabric name (asc); failures after, by
// fabric name.
func rankExplore(entries []ExploreEntry) {
	sort.SliceStable(entries, func(a, b int) bool {
		x, y := entries[a], entries[b]
		if x.OK != y.OK {
			return x.OK
		}
		if x.OK {
			if x.Eff != y.Eff {
				return x.Eff > y.Eff
			}
			if x.II != y.II {
				return x.II < y.II
			}
		}
		return x.Fabric < y.Fabric
	})
}
