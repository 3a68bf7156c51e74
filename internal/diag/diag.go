// Package diag is the shared diagnostics layer of the compilation
// pipelines: a typed failure taxonomy (sentinel error classes plus the
// StageError wrapper that pins a failure to a pipeline stage and attempt)
// and the Tracer contract (per-stage spans with wall time, attempt/wave
// identifiers, and counters).
//
// Every backend — the hierarchical HiMap pipeline (internal/himap), the
// conventional baseline (internal/baseline) and the exact mapper
// (internal/exact) — reports failures through the same classes and emits
// spans through the same interface, so a harness comparing them
// (internal/exp, the compile service) can aggregate failure modes and
// stage costs uniformly. The package is a
// leaf: it imports only the standard library, so every layer (kernel
// front end, routers, mappers, CLIs) can depend on it without cycles.
package diag

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sentinel failure classes. Every pipeline failure wraps exactly one of
// these (via StageError), so callers dispatch with errors.Is regardless
// of which stage or mapper produced it.
var (
	// ErrNoSubMapping: step 1 found no valid IDFG → sub-CGRA mapping
	// (the kernel's iteration graph does not fit any candidate shape).
	ErrNoSubMapping = errors.New("no valid IDFG to sub-CGRA mapping")
	// ErrSchemeInfeasible: a systolic space-time scheme violates a
	// dependence (non-causal or invalid offset) or the injectivity of
	// the allocation, or needs a larger VSA than the array provides.
	ErrSchemeInfeasible = errors.New("systolic scheme infeasible")
	// ErrRouteCongested: negotiated-congestion routing could not reach a
	// conflict-free solution within the round budget (or found no path).
	ErrRouteCongested = errors.New("routing congestion unresolved")
	// ErrBlockPinConflict: a pinned block dimension (Kernel.FixedBlock)
	// contradicts the kernel minimum or the scheme's VSA axis extent.
	ErrBlockPinConflict = errors.New("pinned block dimension conflict")
	// ErrBlockTooSmall: a derived block dimension falls below the
	// kernel's minimum well-formed extent.
	ErrBlockTooSmall = errors.New("block below kernel minimum")
	// ErrPlacementInfeasible: placement found no zero-violation solution
	// (baseline simulated annealing, or a sub-CGRA slot search).
	ErrPlacementInfeasible = errors.New("placement infeasible")
	// ErrReplicaConflict: stamping a canonical route onto a class member
	// collided with another replica (HiMap replication step).
	ErrReplicaConflict = errors.New("replication conflict")
	// ErrConfigInvalid: the emitted configuration failed final
	// validation.
	ErrConfigInvalid = errors.New("configuration invalid")
	// ErrMemPortInfeasible: the iteration graph demands more memory
	// ports (loads/stores) than the fabric's memory-capable PEs provide
	// within the candidate sub-CGRA shapes.
	ErrMemPortInfeasible = errors.New("memory-port demand infeasible on fabric")
	// ErrBandwidthInfeasible: the placed schedule provably demands more
	// simultaneous link departures than the fabric's bandwidth class
	// provides — no routing can satisfy it, so the congestion loop is
	// skipped and the demand excess is reported directly.
	ErrBandwidthInfeasible = errors.New("link-bandwidth demand infeasible on fabric")
	// ErrInvalidRequest: the compile request is structurally unusable
	// before any mapping work can start — a nil kernel, or a field
	// combination no backend accepts. Every backend reports this class
	// (never a panic) so callers can dispatch uniformly.
	ErrInvalidRequest = errors.New("invalid compile request")
	// ErrTooLarge: the block is past a wall on its unrolled DFG, a flat
	// backend's node wall (the conventional mapper's scalability wall,
	// the exact mapper's branch-and-bound wall) or the unroll wall every
	// mapper meets (kernel.CheckUnroll), so it is refused unbuilt.
	ErrTooLarge = errors.New("DFG past the mapper's node wall")
	// ErrProvedInfeasible: the exact mapper exhausted the search space at
	// every II up to its bound without finding a feasible placement — a
	// certificate (relative to the scheduling horizon) that no mapping
	// exists, as opposed to a heuristic giving up.
	ErrProvedInfeasible = errors.New("mapping proved infeasible")
	// ErrCanceled: the compile's context.Context was canceled or its
	// deadline expired before a mapping was committed. The context is the
	// only time bound of every backend: a caller that wants a budget
	// passes context.WithTimeout. The pipelines check the context between
	// stages (the baseline also inside its SA chains, the exact mapper
	// inside its branch-and-bound loop), so cancellation aborts promptly
	// without leaving partial state; the cause chain keeps the original
	// context error, so errors.Is(err, context.Canceled) and
	// context.DeadlineExceeded work through it as well.
	ErrCanceled = errors.New("compilation canceled")
)

// StageError pins one failure class to its pipeline context: the stage
// that raised it, the kernel and target array being compiled, and the
// 1-based attempt index within the mapper's search ((sub-mapping, scheme)
// rank for HiMap, II for the baseline; 0 when the failure precedes the
// attempt loop). It unwraps to both its Class sentinel and its underlying
// cause, so errors.Is sees the taxonomy and errors.As reaches any richer
// typed error below.
type StageError struct {
	Class   error  // one of the sentinel classes above
	Stage   string // pipeline stage name, e.g. "route"
	Kernel  string
	CGRA    string
	Attempt int   // 1-based attempt rank; 0 = outside the attempt loop
	Err     error // underlying cause (may be nil)
}

func (e *StageError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stage %s", e.Stage)
	if e.Kernel != "" {
		fmt.Fprintf(&b, " (%s on %s", e.Kernel, e.CGRA)
		if e.Attempt > 0 {
			fmt.Fprintf(&b, ", attempt %d", e.Attempt)
		}
		b.WriteString(")")
	} else if e.Attempt > 0 {
		fmt.Fprintf(&b, " (attempt %d)", e.Attempt)
	}
	b.WriteString(": ")
	b.WriteString(e.Class.Error())
	if e.Err != nil {
		fmt.Fprintf(&b, ": %v", e.Err)
	}
	return b.String()
}

// Unwrap exposes both the class sentinel and the cause to errors.Is/As.
func (e *StageError) Unwrap() []error {
	if e.Err == nil {
		return []error{e.Class}
	}
	return []error{e.Class, e.Err}
}

// Stamp fills the pipeline context fields that are still zero; stages
// raise StageErrors with only Class/Err set and the pipeline runner
// stamps stage, kernel, CGRA, and attempt on the way out.
func (e *StageError) Stamp(stage, kernel, cgra string, attempt int) *StageError {
	if e.Stage == "" {
		e.Stage = stage
	}
	if e.Kernel == "" {
		e.Kernel = kernel
		e.CGRA = cgra
	}
	if e.Attempt == 0 {
		e.Attempt = attempt
	}
	return e
}

// Fail builds a StageError from a class and a cause. Stage and attempt
// context is stamped later by the pipeline runner.
func Fail(class, cause error) *StageError {
	return &StageError{Class: class, Err: cause}
}

// Failf is Fail with a formatted cause.
func Failf(class error, format string, args ...any) *StageError {
	return &StageError{Class: class, Err: fmt.Errorf(format, args...)}
}

// classes lists every sentinel, in taxonomy order, for Classify.
var classes = []error{
	ErrNoSubMapping, ErrSchemeInfeasible, ErrRouteCongested,
	ErrBlockPinConflict, ErrBlockTooSmall, ErrPlacementInfeasible,
	ErrReplicaConflict, ErrConfigInvalid, ErrMemPortInfeasible,
	ErrBandwidthInfeasible, ErrInvalidRequest, ErrTooLarge,
	ErrProvedInfeasible, ErrCanceled,
}

// Classes returns every sentinel failure class in taxonomy order — the
// complete enumeration a consumer mapping the taxonomy (the serve wire
// error_code enum, failure-mode aggregation) must cover. The returned
// slice is a copy.
func Classes() []error { return append([]error(nil), classes...) }

// Classify coerces an arbitrary stage failure into a StageError: an error
// that already is one passes through; an error wrapping a sentinel (e.g.
// a kernel-validation failure carrying ErrBlockPinConflict) is classed by
// that sentinel; anything else gets the stage's fallback class. The
// original error stays in the cause chain either way.
func Classify(err error, fallback error) *StageError {
	var se *StageError
	if errors.As(err, &se) {
		return se
	}
	for _, c := range classes {
		if errors.Is(err, c) {
			return Fail(c, err)
		}
	}
	return Fail(fallback, err)
}

// ---------------------------------------------------------------- tracing

// Span is one completed pipeline stage execution. Attempt and Wave
// identify speculative attempts (0 for stages outside the attempt loop):
// Wave is the attempt's launch generation, 1 + the attempts that had
// finished when it was claimed, which is its rank under Workers=1;
// Err carries the stage's failure rendering ("" on success); Counters
// holds stage-specific metrics (route rounds, canonical nets, memo hits).
type Span struct {
	Stage    string
	Attempt  int // 1-based attempt rank; 0 = front stage
	Wave     int // 1-based launch generation; 0 = front stage
	Wall     time.Duration
	Err      string
	Counters map[string]int64
}

// Tracer receives one Span per executed pipeline stage. Implementations
// must be safe for concurrent Emit calls: speculative attempts run in
// parallel and emit from their worker goroutines.
type Tracer interface {
	Emit(Span)
}

// TracerFunc adapts a plain function to the Tracer interface — the
// metrics-sink hook: a serving layer passes a closure recording span wall
// times into its histogram registry. The function must be safe for
// concurrent calls (speculative attempts emit from worker goroutines).
type TracerFunc func(Span)

// Emit calls f(s).
func (f TracerFunc) Emit(s Span) { f(s) }

// MultiTracer fans every span out to each tracer in order — e.g. a CLI
// text tracer plus a metrics sink observing the same compile. Nil
// entries are skipped; with no non-nil entries it degenerates to Nop.
func MultiTracer(tracers ...Tracer) Tracer {
	var kept []Tracer
	for _, t := range tracers {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return Nop()
	case 1:
		return kept[0]
	}
	return multiTracer(kept)
}

type multiTracer []Tracer

func (m multiTracer) Emit(s Span) {
	for _, t := range m {
		t.Emit(s)
	}
}

// SerialTracer wraps fn so spans are delivered one at a time, in a
// single total order: speculative attempts emit from parallel worker
// goroutines, and a consumer that streams spans out (the himapd SSE
// stage-event stream) needs each span rendered whole before the next
// begins. The order is the lock-acquisition order — deterministic for
// sequential pipelines, best-effort under Workers > 1.
func SerialTracer(fn func(Span)) Tracer {
	var mu sync.Mutex
	return TracerFunc(func(s Span) {
		mu.Lock()
		defer mu.Unlock()
		fn(s)
	})
}

// nopTracer discards every span.
type nopTracer struct{}

func (nopTracer) Emit(Span) {}

// Nop returns the no-op tracer (the default when Options.Tracer is nil).
func Nop() Tracer { return nopTracer{} }

// textTracer renders one line per span, for CLI -trace output.
type textTracer struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTextTracer returns a tracer printing one human-readable line per
// span to w, serialized across goroutines.
func NewTextTracer(w io.Writer) Tracer { return &textTracer{w: w} }

func (t *textTracer) Emit(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %-14s", s.Stage)
	if s.Attempt > 0 {
		fmt.Fprintf(&b, " attempt %-3d gen %-2d ", s.Attempt, s.Wave)
	} else {
		b.WriteString("                   ")
	}
	fmt.Fprintf(&b, " %10s", s.Wall.Round(time.Microsecond))
	if len(s.Counters) > 0 {
		keys := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, s.Counters[k])
		}
	}
	if s.Err != "" {
		fmt.Fprintf(&b, " err=%q", s.Err)
	}
	b.WriteByte('\n')
	io.WriteString(t.w, b.String())
}

// Collector accumulates spans in memory for inspection after the compile —
// the tracer behind himap.NewTraceCollector and any test asserting on
// trace structure.
type Collector struct {
	mu    sync.Mutex
	spans []Span
}

// NewCollector returns an empty span collector.
func NewCollector() *Collector { return &Collector{} }

// Emit appends the span (goroutine-safe).
func (c *Collector) Emit(s Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

// Spans returns a copy of everything collected so far.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.spans...)
}

// Reset discards all collected spans.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.spans = nil
	c.mu.Unlock()
}
