package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"himap"
	"himap/internal/diag"
	"himap/internal/kernel"
	"himap/internal/store"
)

// Config tunes one Server.
type Config struct {
	// Workers is passed to Options.Workers of every HiMap compile — it
	// changes wall-clock only, never the emitted mapping. 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// MaxInFlight bounds concurrently executing compiles. Default 2.
	MaxInFlight int
	// MaxQueue bounds requests admitted beyond MaxInFlight and waiting
	// for a worker slot; the excess is rejected with ErrOverloaded (HTTP
	// 429). Negative means no waiting at all (reject when every worker is
	// busy); 0 means the default of 16.
	MaxQueue int
	// CacheBytes is the in-memory result cache's byte budget. 0 means
	// the default 64 MiB; negative disables the memory cache.
	CacheBytes int64
	// StoreDir roots the disk-backed content-addressed result store
	// beneath the memory cache. Entries are hash-verified on read and
	// evicted when corrupt, and survive restarts with byte-identical
	// replay. Empty disables the disk store.
	StoreDir string
	// DefaultTimeout bounds compiles whose request carries no
	// timeout_ms. Default 2 minutes.
	DefaultTimeout time.Duration
	// MaxExactCells bounds the unrolled DFG node count the exact mapper
	// accepts over the wire (branch-and-bound is exponential; this guard
	// keeps one request from monopolizing a worker slot). Default 128.
	MaxExactCells int
	// MaxBatchItems bounds the item count of one /v1/compile-batch
	// request. Default 64.
	MaxBatchItems int
}

// The wire's fixed bounds.
const (
	maxTimeout   = 10 * time.Minute // clamps request-supplied timeouts
	maxArraySide = 64               // bounds fabric rows and cols
	maxBlock     = 64               // bounds inner_block and each block extent
)

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = -1 // normalized "no waiting"
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxExactCells <= 0 {
		c.MaxExactCells = 128
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	return c
}

// Server is the himapd service core: decode → cache → coalesce → admit
// → compile → respond, every layer observable through Metrics.
type Server struct {
	cfg     Config
	cache   *cache
	disk    *store.Store // nil when Config.StoreDir is empty
	metrics *Metrics
	sem     chan struct{}
	pending atomic.Int64 // admitted requests, waiting or running

	flightMu sync.Mutex
	flight   map[string]*flightCall

	// compile is the execution seam: production servers compile through
	// himap.CompileRequest; tests inject stubs to exercise coalescing,
	// admission, and deadline behavior without real compiles.
	compile func(ctx context.Context, req himap.Request) (*himap.Result, error)
}

// flightCall is one in-flight compile other identical requests wait on.
type flightCall struct {
	done   chan struct{}
	status int
	body   []byte
}

// New returns a Server with the production compile function. It fails
// when the disk store cannot be opened.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newCache(cfg.CacheBytes),
		metrics: NewMetrics(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		flight:  map[string]*flightCall{},
		compile: himap.CompileRequest,
	}
	if cfg.StoreDir != "" {
		disk, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.disk = disk
	}
	return s, nil
}

// MustNew is New for configurations that cannot fail (no store) — the
// constructor tests and tools use.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// SetCompileFunc replaces the compile execution seam (tests only).
func (s *Server) SetCompileFunc(fn func(context.Context, himap.Request) (*himap.Result, error)) {
	s.compile = fn
}

// Metrics exposes the server's registry (the himapd main wires it into
// shutdown logging; tests assert on counters).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Store exposes the disk store (nil when disabled) for tests and the
// metrics endpoint.
func (s *Server) Store() *store.Store { return s.disk }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("POST /v1/compile-batch", s.handleBatch)
	mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// BuildRequest converts a wire request into the himap.Request the server
// compiles. It is exported so the smoke harness and tests can run the
// exact same request through himap.CompileRequest directly and compare
// bytes. The conventional mapper's chain count is pinned to 1 worker
// because it changes the emitted mapping; the HiMap Workers knob is
// output-invariant and stays a server setting.
func BuildRequest(w *CompileRequestWire, cfg Config) (himap.Request, error) {
	cfg = cfg.withDefaults()
	var req himap.Request

	switch {
	case w.Kernel != "" && w.Spec != nil:
		return req, fmt.Errorf("%w: kernel and spec are mutually exclusive", ErrBadRequest)
	case w.Kernel != "":
		k, err := kernel.ByName(w.Kernel)
		if err != nil {
			return req, fmt.Errorf("%w: %q", ErrUnknownKernel, w.Kernel)
		}
		req.Kernel = k
	case w.Spec != nil:
		k, err := w.Spec.Build()
		if err != nil {
			return req, err
		}
		if err := k.Validate(); err != nil {
			return req, fmt.Errorf("%w: invalid spec: %v", ErrBadRequest, err)
		}
		req.Kernel = k
	default:
		return req, fmt.Errorf("%w: one of kernel or spec is required", ErrBadRequest)
	}

	fab, err := BuildFabric(w.Fabric)
	if err != nil {
		return req, err
	}
	req.Fabric = fab

	o := w.Options
	switch o.Mapper {
	case "", string(himap.MapperHiMap):
		req.Mapper = himap.MapperHiMap
		if len(o.Block) != 0 {
			return req, fmt.Errorf("%w: options.block applies to the conventional mapper only (himap derives its block)", ErrBadRequest)
		}
		if o.Seed != 0 {
			return req, fmt.Errorf("%w: options.seed applies to the conventional mapper only", ErrBadRequest)
		}
	case string(himap.MapperConventional):
		req.Mapper = himap.MapperConventional
		if o.InnerBlock != 0 {
			return req, fmt.Errorf("%w: options.inner_block applies to the himap mapper only", ErrBadRequest)
		}
	case string(himap.MapperExact):
		req.Mapper = himap.MapperExact
		if o.InnerBlock != 0 {
			return req, fmt.Errorf("%w: options.inner_block applies to the himap mapper only", ErrBadRequest)
		}
		if o.Seed != 0 {
			return req, fmt.Errorf("%w: options.seed applies to the conventional mapper only", ErrBadRequest)
		}
		// Bound the search: branch-and-bound is exponential, so the wire
		// refuses instances past the configured cell budget (the mapper
		// reports the excess as diag.ErrTooLarge, wire code too_large).
		req.Exact.MaxNodes = cfg.MaxExactCells
	default:
		return req, fmt.Errorf("%w: unknown mapper %q (want %s)", ErrBadRequest, o.Mapper, himap.BackendNames())
	}
	if o.InnerBlock < 0 || o.InnerBlock > maxBlock {
		return req, fmt.Errorf("%w: inner_block %d outside [0,%d]", ErrBadRequest, o.InnerBlock, maxBlock)
	}
	if len(o.Block) != 0 && len(o.Block) != req.Kernel.Dim {
		return req, fmt.Errorf("%w: block has %d dims, kernel %q has %d", ErrBadRequest, len(o.Block), req.Kernel.Name, req.Kernel.Dim)
	}
	for _, b := range o.Block {
		if b < 1 || b > maxBlock {
			return req, fmt.Errorf("%w: block extent %d outside [1,%d]", ErrBadRequest, b, maxBlock)
		}
	}
	if o.TimeoutMS < 0 {
		return req, fmt.Errorf("%w: timeout_ms must be non-negative", ErrBadRequest)
	}
	req.Options.InnerBlock = o.InnerBlock
	req.Block = append([]int(nil), o.Block...)
	req.Baseline.Seed = o.Seed
	req.Baseline.Workers = 1 // chain count changes the mapping; pin for wire determinism
	return req, nil
}

// BuildFabric converts a wire fabric specification into the fabric the
// server compiles, applying the array-size bound and strict enumeration
// parsing.
func BuildFabric(f FabricSpec) (himap.Fabric, error) {
	if f.Rows < 2 || f.Cols < 2 || f.Rows > maxArraySide || f.Cols > maxArraySide {
		return himap.Fabric{}, fmt.Errorf("%w: fabric %dx%d outside [2,%d]", ErrBadRequest, f.Rows, f.Cols, maxArraySide)
	}
	fab, err := himap.ParseFabric(himap.DefaultCGRA(f.Rows, f.Cols), f.Topology, f.MemPEs, f.Bandwidth, f.CostClass)
	if err != nil {
		return fab, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return fab, nil
}

// timeout resolves a request's timeout_ms (a compile's or a batch's) into
// its deadline: the default when omitted, clamped to maxTimeout.
func (s *Server) timeout(timeoutMS int) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > maxTimeout {
		d = maxTimeout
	}
	return d
}

// admit reserves a compile slot, waiting in the bounded queue. The
// release function must be called exactly once after the compile.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	limit := int64(s.cfg.MaxInFlight)
	if s.cfg.MaxQueue > 0 {
		limit += int64(s.cfg.MaxQueue)
	}
	if s.pending.Add(1) > limit {
		s.pending.Add(-1)
		return nil, ErrOverloaded
	}
	s.metrics.queued.Add(1)
	defer s.metrics.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		s.metrics.inFlight.Add(1)
		return func() {
			s.metrics.inFlight.Add(-1)
			s.pending.Add(-1)
			<-s.sem
		}, nil
	case <-ctx.Done():
		s.pending.Add(-1)
		return nil, diag.Fail(diag.ErrCanceled, ctx.Err())
	}
}

// cacheGet consults the two cache levels in order: the in-memory LRU,
// then the disk store (hash-verified; a hit is promoted into memory).
// The returned status string is the X-Himap-Cache value ("hit" or
// "store").
func (s *Server) cacheGet(key string) ([]byte, string, bool) {
	if body, ok := s.cache.get(key); ok {
		return body, "hit", true
	}
	if s.disk != nil {
		if body, ok := s.disk.Get(key); ok {
			s.cache.put(key, body)
			return body, "store", true
		}
	}
	return nil, "", false
}

// cachePut stores a success body at both cache levels. Disk write
// failure is tolerated (the memory cache still serves; a restart just
// recompiles).
func (s *Server) cachePut(key string, body []byte) {
	s.cache.put(key, body)
	if s.disk != nil {
		s.disk.Put(key, body)
	}
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	wire, err := DecodeRequest(r.Body)
	if err != nil {
		s.reject(w, err)
		return
	}
	hreq, err := BuildRequest(wire, s.cfg)
	if err != nil {
		s.reject(w, err)
		return
	}
	key := CacheKey(wire)

	if wantsStream(r) {
		s.streamCompile(w, r, wire, hreq, key)
		return
	}

	status, body, cacheStatus := s.respond(r.Context(), wire, hreq, key)
	writeBody(w, status, body, cacheStatus)
}

// respond resolves one compile request: cache levels, then
// singleflight coalescing, then a deadline-bounded compile. It returns
// the HTTP status, body bytes, and X-Himap-Cache value.
func (s *Server) respond(ctx context.Context, wire *CompileRequestWire, hreq himap.Request, key string) (int, []byte, string) {
	if body, status, ok := s.cacheGet(key); ok {
		s.metrics.cacheHits.Add(1)
		return http.StatusOK, body, status
	}
	ctx, cancel := context.WithTimeout(ctx, s.timeout(wire.Options.TimeoutMS))
	defer cancel()

	// Coalesce identical concurrent requests onto one compile: the first
	// becomes the leader; the rest wait for its bytes.
	s.flightMu.Lock()
	if c, ok := s.flight[key]; ok {
		s.flightMu.Unlock()
		s.metrics.coalesced.Add(1)
		select {
		case <-c.done:
			// The leader's deadline is its own — timeout_ms is not part
			// of the key, and its client may simply have gone away. A
			// follower still inside its deadline starts over (as the new
			// leader, or on the cache) instead of inheriting the 504;
			// every other outcome is shared.
			if c.status == http.StatusGatewayTimeout && ctx.Err() == nil {
				return s.respond(ctx, wire, hreq, key)
			}
			return c.status, c.body, "coalesced"
		case <-ctx.Done():
			status, body := renderError(diag.Fail(diag.ErrCanceled, ctx.Err()))
			return status, body, ""
		}
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[key] = c
	s.flightMu.Unlock()
	s.metrics.cacheMisses.Add(1)

	c.status, c.body = s.execute(ctx, hreq, nil, nil)
	if c.status == http.StatusOK {
		s.cachePut(key, c.body)
	}
	s.flightMu.Lock()
	delete(s.flight, key)
	s.flightMu.Unlock()
	close(c.done)
	return c.status, c.body, "miss"
}

// execute is the one path every compile takes — plain, batch item and
// SSE stream alike: reserve a slot, wire the server's Workers setting and
// the metrics tracer (plus the adapter's own span sink, if any) into the
// request, run it, and answer in /v1/compile bytes: the success body or
// the typed error body, with its status. admitted, when non-nil, is
// called once the slot is held and before the compile starts, so an
// adapter can tell a pre-admission rejection from a compile failure.
// The caller bounds ctx; caching stays with it.
func (s *Server) execute(ctx context.Context, hreq himap.Request, tracer diag.Tracer, admitted func()) (int, []byte) {
	release, err := s.admit(ctx)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.rejected.Add(1)
		}
		return renderError(err)
	}
	defer release()
	if admitted != nil {
		admitted()
	}

	tracer = diag.MultiTracer(tracer, s.metrics.Tracer())
	hreq.Options.Workers = s.cfg.Workers
	hreq.Options.Tracer = tracer
	hreq.Baseline.Tracer = tracer
	hreq.Exact.Tracer = tracer

	s.metrics.compiles.Add(1)
	res, err := s.compile(ctx, hreq)
	if err == nil {
		var body []byte
		if body, err = EncodeResponse(res); err == nil {
			return http.StatusOK, body
		}
	}
	s.metrics.failures.Add(1)
	return renderError(err)
}

// EncodeResponse renders a compile result into the canonical response
// bytes. Exported so the smoke harness can render a direct
// himap.CompileRequest result and byte-compare it with the served body;
// the result must come from himap.CompileRequest, which stamps its
// Backend (the response's mapper).
//
// Every byte is written once. encoding/json renders the head fields from
// a CompileResponse whose two large members are left nil, which fixes
// their names, order, omissions and number forms in one place; the
// configuration then goes in exactly as arch.Config.AppendJSON produced
// it (already compact and escaped — what json.Marshal would make of it
// as a RawMessage, without scanning it again) and the bitstream as the
// base64 string encoding/json gives a []byte.
func EncodeResponse(res *himap.Result) ([]byte, error) {
	bs, err := himap.EncodeBitstream(res.Config)
	if err != nil {
		return nil, fmt.Errorf("encode bitstream: %w", err)
	}
	image := BitstreamBytes(bs)
	resp := CompileResponse{
		SchemaVersion: SchemaVersion,
		Kernel:        res.Kernel.Name,
		Fabric:        res.Fabric.String(),
		Mapper:        res.Backend,
		Block:         res.Block,
		II:            res.Config.II,
		UniqueIters:   res.UniqueIters,
		Attempts:      res.Stats.Attempts,
		Utilization:   res.Utilization,
	}
	if res.Optimality != nil {
		resp.Optimality = &OptimalityWire{
			ProvedMinimal: res.Optimality.ProvedMinimal,
			IILowerBound:  res.Optimality.IILowerBound,
			Certificate:   string(res.Optimality.Certificate),
			Explored:      res.Optimality.Explored,
			Horizon:       res.Optimality.Horizon,
		}
	}
	head, err := json.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("encode response: %w", err)
	}
	// The two nil members close the object; they are cut off and written
	// again with their values.
	const nilTail = `"config":null,"bitstream":null}`
	if !bytes.HasSuffix(head, []byte(nilTail)) {
		return nil, fmt.Errorf("encode response: head does not end in %s", nilTail)
	}
	head = head[:len(head)-len(nilTail)]
	const configKey, bitstreamKey, end = `"config":`, `,"bitstream":"`, "\"}\n"
	body := make([]byte, 0, len(head)+len(configKey)+res.Config.JSONSizeHint()+len(bitstreamKey)+
		base64.StdEncoding.EncodedLen(len(image))+len(end))
	body = append(body, head...)
	body = append(body, configKey...)
	if body, err = res.Config.AppendJSON(body); err != nil {
		return nil, fmt.Errorf("encode config: %w", err)
	}
	body = append(body, bitstreamKey...)
	body = base64.StdEncoding.AppendEncode(body, image)
	return append(body, end...), nil
}

// renderError maps a failure to its HTTP status and error-body bytes.
func renderError(err error) (int, []byte) {
	status, eb := classify(err)
	body, merr := json.Marshal(ErrorResponse{SchemaVersion: SchemaVersion, Error: eb})
	if merr != nil {
		return http.StatusInternalServerError, []byte(fmt.Sprintf(`{"schema_version":%d,"error":{"code":"internal","message":"error encoding failed"}}`+"\n", SchemaVersion))
	}
	return status, append(body, '\n')
}

func writeError(w http.ResponseWriter, err error) {
	status, body := renderError(err)
	writeBody(w, status, body, "")
}

// reject answers a request that failed decoding or validation, before
// any compile work.
func (s *Server) reject(w http.ResponseWriter, err error) {
	s.metrics.badRequests.Add(1)
	writeError(w, err)
}

func writeBody(w http.ResponseWriter, status int, body []byte, cacheStatus string) {
	w.Header().Set("Content-Type", "application/json")
	// The body is complete before the first byte goes out, so say how
	// long it is: net/http then writes it straight through instead of
	// chunking it.
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if cacheStatus != "" {
		w.Header().Set("X-Himap-Cache", cacheStatus)
	}
	w.WriteHeader(status)
	w.Write(body)
}

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	resp := KernelsResponse{SchemaVersion: SchemaVersion}
	for _, k := range append(kernel.Evaluation(), kernel.Extensions()...) {
		resp.Kernels = append(resp.Kernels, KernelInfo{
			Name: k.Name, Desc: k.Desc, Suite: k.Suite, Dim: k.Dim, Ops: k.NumComputeOps(),
		})
	}
	body, err := json.Marshal(resp)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, append(body, '\n'), "")
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	snap.CacheEntries, snap.CacheBytes = s.cache.stats()
	if s.disk != nil {
		st := s.disk.Stats()
		snap.Store = &st
	}
	format := r.URL.Query().Get("format")
	if format == "json" || strings.Contains(r.Header.Get("Accept"), "application/json") {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(snap.MarshalJSONIndent())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	snap.WriteText(w)
}
