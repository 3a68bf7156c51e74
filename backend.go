package himap

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"himap/internal/baseline"
	"himap/internal/exact"
	core "himap/internal/himap"
)

// BackendCaps advertises what a backend consumes and guarantees, so
// callers (the himapd service, harnesses) can validate requests and
// surface capabilities without hard-coding per-backend knowledge.
type BackendCaps struct {
	// UsesBlock: the backend consumes Request.Block (the HiMap flow
	// derives its own block from the systolic scheme and ignores it).
	UsesBlock bool
	// UsesOptions / UsesBaseline / UsesExact: which option struct of the
	// Request the backend reads.
	UsesOptions  bool
	UsesBaseline bool
	UsesExact    bool
	// Proves: results may carry an Optimality certificate.
	Proves bool
	// Description is a one-line human-readable summary.
	Description string
}

// Backend is one registered compilation flow. Implementations must be
// safe for concurrent use and deterministic: Compile must be a pure
// function of (Request, fabric) up to wall-clock-dependent budget and
// tracing fields.
type Backend interface {
	// Name is the registry key, matched against Request.Mapper.
	Name() Mapper
	// Capabilities describes which Request fields the backend consumes.
	Capabilities() BackendCaps
	// Compile runs the flow. The dispatcher has already rejected nil
	// kernels and unknown mappers; Compile stamps neither Result.Backend
	// nor tracing context (the dispatcher does).
	Compile(ctx context.Context, req Request) (*Result, error)
}

var (
	backendMu sync.RWMutex
	backendBy = map[Mapper]Backend{}
)

// RegisterBackend adds a backend to the registry. It fails (rather than
// panics) on an empty name or a duplicate registration, so tests can
// assert the contract; the built-in backends register during package
// initialization.
func RegisterBackend(b Backend) error {
	if b == nil {
		return fmt.Errorf("himap: RegisterBackend(nil)")
	}
	name := b.Name()
	if name == "" {
		return fmt.Errorf("himap: backend with empty name")
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backendBy[name]; dup {
		return fmt.Errorf("himap: backend %q already registered", name)
	}
	backendBy[name] = b
	return nil
}

// Backends returns the registered backend names in sorted order — the
// deterministic iteration order of the registry.
func Backends() []Mapper {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := make([]Mapper, 0, len(backendBy))
	for name := range backendBy {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// BackendNames renders the sorted registry as "a|b|c" for error messages
// and flag help.
func BackendNames() string {
	names := Backends()
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = string(n)
	}
	return strings.Join(parts, "|")
}

// BackendFor resolves a mapper name to its backend. The empty name means
// MapperHiMap (the zero Request compiles hierarchically).
func BackendFor(m Mapper) (Backend, bool) {
	if m == "" {
		m = MapperHiMap
	}
	backendMu.RLock()
	defer backendMu.RUnlock()
	b, ok := backendBy[m]
	return b, ok
}

func init() {
	for _, b := range []Backend{himapBackend{}, conventionalBackend{}, exactBackend{}} {
		if err := RegisterBackend(b); err != nil {
			panic(err)
		}
	}
}

// himapBackend wraps the hierarchical flow (internal/himap).
type himapBackend struct{}

func (himapBackend) Name() Mapper { return MapperHiMap }

func (himapBackend) Capabilities() BackendCaps {
	return BackendCaps{
		UsesOptions: true,
		Description: "hierarchical HiMap flow: IDFG → sub-CGRA, systolic scheme, place, route, replicate",
	}
}

func (himapBackend) Compile(ctx context.Context, req Request) (*Result, error) {
	return core.CompileRequest(ctx, req.Kernel, req.Fabric, req.Options)
}

// conventionalBackend wraps the flat SA + PathFinder baseline
// (internal/baseline).
type conventionalBackend struct{}

func (conventionalBackend) Name() Mapper { return MapperConventional }

func (conventionalBackend) Capabilities() BackendCaps {
	return BackendCaps{
		UsesBlock:    true,
		UsesBaseline: true,
		Description:  "conventional flat DFG mapper: simulated-annealing placement + negotiated routing (BHC stand-in)",
	}
}

func (conventionalBackend) Compile(ctx context.Context, req Request) (*Result, error) {
	block := req.Block
	if block == nil {
		block = req.Kernel.UniformBlock(4)
	}
	res, err := baseline.CompileRequest(ctx, req.Kernel, req.Fabric, block, req.Baseline)
	if err != nil {
		return nil, err
	}
	return &Result{
		Kernel:       res.Kernel,
		Fabric:       req.Fabric,
		Block:        res.Block,
		Config:       res.Config,
		Utilization:  res.Utilization,
		Conventional: res,
	}, nil
}

// exactBackend wraps the branch-and-bound mapper with optimality
// certificates (internal/exact).
type exactBackend struct{}

func (exactBackend) Name() Mapper { return MapperExact }

func (exactBackend) Capabilities() BackendCaps {
	return BackendCaps{
		UsesBlock:   true,
		UsesExact:   true,
		Proves:      true,
		Description: "exact branch-and-bound mapper: iterative deepening on II with optimality certificates",
	}
}

func (exactBackend) Compile(ctx context.Context, req Request) (*Result, error) {
	block := req.Block
	if block == nil {
		// Exact search targets small instances; default to the smallest
		// well-formed block rather than the conventional mapper's 4.
		block = req.Kernel.UniformBlock(2)
	}
	res, err := exact.CompileRequest(ctx, req.Kernel, req.Fabric, block, req.Exact)
	if err != nil {
		return nil, err
	}
	return &Result{
		Kernel:      res.Kernel,
		Fabric:      req.Fabric,
		Block:       res.Block,
		Config:      res.Config,
		Utilization: res.Utilization,
		Optimality:  &res.Optimality,
		Exact:       res,
	}, nil
}
