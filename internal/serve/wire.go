// Package serve is the himapd compilation service: an HTTP/JSON layer
// over the unified himap.CompileRequest API with a two-level
// content-addressed result cache (in-memory LRU over an optional
// disk-backed, integrity-checked store), singleflight coalescing, a
// bounded admission queue, and an atomic-counter metrics registry. The wire
// contract is versioned (SchemaVersion) and strict: requests with
// unknown fields are rejected, responses always carry schema_version,
// and a served compile is byte-identical to a direct CompileRequest of
// the same request — cache and coalescing status travel in the
// X-Himap-Cache response header, never in the body.
//
// The server speaks exactly one wire version, SchemaVersion: a request
// either omits schema_version or pins that value, and any other pin —
// older or newer — is rejected up front with the typed 400, so a client
// built against another contract fails loudly instead of being
// misinterpreted.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"himap"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/kernel"
)

// SchemaVersion is the wire-contract version, stamped on every response
// body (success and error alike). The server bumps it only on
// incompatible changes; clients reject versions they do not know.
const SchemaVersion = 2

// maxRequestBytes bounds the body of every request the server decodes,
// so one client cannot make it buffer arbitrary JSON. A full batch of
// MaxBatchItems inline kernel specifications (a few KiB each) fits with
// an order of magnitude to spare.
const maxRequestBytes = 8 << 20

// Typed request-rejection sentinels. Handlers wrap them with %w, and the
// HTTP layer maps each to its status code (400, 404, 429).
var (
	// ErrBadRequest: the request body failed strict decoding or semantic
	// validation (unknown fields, missing kernel, out-of-range fabric).
	ErrBadRequest = errors.New("bad request")
	// ErrUnknownKernel: the named kernel is not in the registry.
	ErrUnknownKernel = errors.New("unknown kernel")
	// ErrOverloaded: the admission queue is full; retry later.
	ErrOverloaded = errors.New("server overloaded")
)

// diagErrorCodes maps every diag sentinel failure class 1:1 to its
// stable wire error_code. TestWireErrorCodeTotal asserts the mapping is
// total and injective over diag.Classes(), so a new sentinel cannot
// ship unmapped.
var diagErrorCodes = map[error]string{
	diag.ErrNoSubMapping:        "no_sub_mapping",
	diag.ErrSchemeInfeasible:    "scheme_infeasible",
	diag.ErrRouteCongested:      "route_congested",
	diag.ErrBlockPinConflict:    "block_pin_conflict",
	diag.ErrBlockTooSmall:       "block_too_small",
	diag.ErrPlacementInfeasible: "placement_infeasible",
	diag.ErrReplicaConflict:     "replica_conflict",
	diag.ErrConfigInvalid:       "config_invalid",
	diag.ErrMemPortInfeasible:   "mem_port_infeasible",
	diag.ErrBandwidthInfeasible: "bandwidth_infeasible",
	diag.ErrInvalidRequest:      "invalid_request",
	diag.ErrTooLarge:            "too_large",
	diag.ErrProvedInfeasible:    "proved_infeasible",
	diag.ErrCanceled:            "canceled",
}

// Serve-level error codes (conditions that never reach a compile).
const (
	CodeBadRequest    = "bad_request"
	CodeUnknownKernel = "unknown_kernel"
	CodeOverloaded    = "overloaded"
	CodeInternal      = "internal"
)

// classify is the one failure ladder of the service: it maps an error
// to its HTTP status and wire body — the coarse HTTP-dispatch Code, the
// stable ErrorCode enum, and the diag Class when the compile itself
// failed.
func classify(err error) (status int, eb ErrorBody) {
	eb.Message = err.Error()
	// Context errors below a compile that did not wrap ErrCanceled still
	// belong to the canceled class.
	canceled := errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
	var se *diag.StageError
	switch {
	case errors.Is(err, ErrOverloaded):
		status, eb.Code, eb.ErrorCode = http.StatusTooManyRequests, CodeOverloaded, CodeOverloaded
	case errors.Is(err, ErrUnknownKernel):
		status, eb.Code, eb.ErrorCode = http.StatusNotFound, CodeUnknownKernel, CodeUnknownKernel
	case errors.Is(err, ErrBadRequest):
		status, eb.Code, eb.ErrorCode = http.StatusBadRequest, CodeBadRequest, CodeBadRequest
	case canceled || errors.Is(err, diag.ErrCanceled):
		status, eb.Code, eb.Class = http.StatusGatewayTimeout, "deadline", diag.ErrCanceled.Error()
	case errors.Is(err, diag.ErrInvalidRequest):
		// A malformed himap.Request (nil kernel) that slipped past wire
		// validation is a caller bug, not a mapping infeasibility.
		status, eb.Code, eb.Class = http.StatusBadRequest, CodeBadRequest, diag.ErrInvalidRequest.Error()
	case errors.As(err, &se):
		status, eb.Code, eb.Class = http.StatusUnprocessableEntity, "infeasible", se.Class.Error()
	default:
		status, eb.Code = http.StatusInternalServerError, CodeInternal
	}
	if eb.ErrorCode != "" {
		return status, eb // serve-level rejections reuse their Code
	}
	// Compile failures take the error_code of the first diag class they
	// wrap, in taxonomy order, so the classification is deterministic
	// even for errors wrapping several sentinels.
	eb.ErrorCode = CodeInternal
	if canceled {
		eb.ErrorCode = diagErrorCodes[diag.ErrCanceled]
	}
	for _, class := range diag.Classes() {
		if errors.Is(err, class) {
			eb.ErrorCode = diagErrorCodes[class]
			break
		}
	}
	return status, eb
}

// WireErrorCode is the stable error_code classify assigns to err.
func WireErrorCode(err error) string {
	_, eb := classify(err)
	return eb.ErrorCode
}

// CompileRequestWire is the POST /v1/compile request body. Exactly one
// of Kernel (a registry name, GET /v1/kernels) and Spec (an inline
// kernel specification) must be set. SchemaVersion may be omitted
// (treated as the current version) or set to SchemaVersion; any other
// value is rejected so a client pinned to another contract fails
// loudly instead of being misinterpreted.
type CompileRequestWire struct {
	SchemaVersion int         `json:"schema_version,omitempty"`
	Kernel        string      `json:"kernel,omitempty"`
	Spec          *KernelSpec `json:"spec,omitempty"`
	Fabric        FabricSpec  `json:"fabric"`
	Options       OptionsSpec `json:"options"`
}

// FabricSpec selects the target architecture.
type FabricSpec struct {
	Rows      int    `json:"rows"`
	Cols      int    `json:"cols"`
	Topology  string `json:"topology,omitempty"`   // mesh (default) | torus | diag
	MemPEs    string `json:"mem_pes,omitempty"`    // all (default) | boundary | none
	Bandwidth string `json:"bandwidth,omitempty"`  // unit (default) | double | bus | narrow-rf
	CostClass string `json:"cost_class,omitempty"` // balanced (default) | low-power | high-perf
}

// OptionsSpec tunes the compile. TimeoutMS bounds the request's wall
// clock and is the only field excluded from the cache key (it cannot
// change the mapping, only whether the compile finishes).
type OptionsSpec struct {
	Mapper     string `json:"mapper,omitempty"` // himap (default) | conventional | exact
	InnerBlock int    `json:"inner_block,omitempty"`
	Block      []int  `json:"block,omitempty"` // conventional and exact mappers only
	Seed       int64  `json:"seed,omitempty"`  // conventional mapper only
	TimeoutMS  int    `json:"timeout_ms,omitempty"`
}

// KernelSpec is the inline kernel-specification wire form, mirroring the
// internal/kernel DSL with strings for enumerations and affine rows for
// tensor extents (tensor dim r = sum coef[d]*block[d] + off).
type KernelSpec struct {
	Name       string       `json:"name"`
	Dim        int          `json:"dim"`
	MinBlock   int          `json:"min_block,omitempty"`
	FixedBlock []int        `json:"fixed_block,omitempty"`
	Tensors    []TensorWire `json:"tensors"`
	Body       []BodyOpWire `json:"body"`
}

// TensorWire declares one tensor; Dims holds one affine row per tensor
// dimension.
type TensorWire struct {
	Name string      `json:"name"`
	Out  bool        `json:"out,omitempty"`
	Dims []AffineRow `json:"dims"`
}

// AffineRow is one affine form over the block/iteration vector:
// value = sum Coef[d]*x[d] + Off.
type AffineRow struct {
	Coef []int `json:"coef"`
	Off  int   `json:"off,omitempty"`
}

// BodyOpWire is one loop-body operation.
type BodyOpWire struct {
	Name   string      `json:"name,omitempty"`
	Op     string      `json:"op"` // add|sub|mul|div|min|max|and|or|xor|shl|shr|sel|route
	A      []CaseWire  `json:"a,omitempty"`
	B      []CaseWire  `json:"b,omitempty"`
	Stores []StoreWire `json:"stores,omitempty"`
}

// CaseWire pairs a guard with an operand source.
type CaseWire struct {
	When []CondWire `json:"when,omitempty"` // empty = always
	Src  SourceWire `json:"src"`
}

// CondWire is one guard condition.
type CondWire struct {
	Kind string `json:"kind"` // first|last|not_first|not_last|eq_dims|ne_dims|index_eq|index_lt
	Dim  int    `json:"dim"`
	Dim2 int    `json:"dim2,omitempty"`
	Val  int    `json:"val,omitempty"`
}

// SourceWire is one operand origin.
type SourceWire struct {
	Kind   string      `json:"kind"` // dep|mem|const
	Op     int         `json:"op,omitempty"`
	Dist   []int       `json:"dist,omitempty"`
	Tensor string      `json:"tensor,omitempty"`
	Map    []AffineRow `json:"map,omitempty"`
	Value  int64       `json:"value,omitempty"`
}

// StoreWire writes the op's result to a tensor under a guard.
type StoreWire struct {
	When   []CondWire  `json:"when,omitempty"`
	Tensor string      `json:"tensor"`
	Map    []AffineRow `json:"map"`
}

// CompileResponse is the POST /v1/compile success body. Config is the
// canonical configuration JSON (himap.SaveConfig bytes) and Bitstream
// the canonical binary configuration-memory image (BitstreamBytes),
// base64-coded by encoding/json. The body carries no wall-clock or
// cache-status fields, so a cached response is byte-identical to the
// compile that produced it.
type CompileResponse struct {
	SchemaVersion int             `json:"schema_version"`
	Kernel        string          `json:"kernel"`
	Fabric        string          `json:"fabric"`
	Mapper        string          `json:"mapper,omitempty"`
	Block         []int           `json:"block"`
	II            int             `json:"ii"`
	UniqueIters   int             `json:"unique_iters,omitempty"`
	Attempts      int             `json:"attempts,omitempty"`
	Utilization   float64         `json:"utilization"`
	Optimality    *OptimalityWire `json:"optimality,omitempty"`
	Config        json.RawMessage `json:"config"`
	Bitstream     []byte          `json:"bitstream"`
}

// OptimalityWire is the certificate block of an exact-mapper response:
// whether the returned II was proved minimal, the best lower bound
// established, and the kind of proof ("resmii": II equals the static
// resource/recurrence bound; "exhaustive": every smaller II refuted).
// Only responses from "mapper": "exact" carry it.
type OptimalityWire struct {
	ProvedMinimal bool   `json:"proved_minimal"`
	IILowerBound  int    `json:"ii_lower_bound"`
	Certificate   string `json:"certificate,omitempty"`
	Explored      int64  `json:"explored,omitempty"`
	Horizon       int    `json:"horizon,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	SchemaVersion int       `json:"schema_version"`
	Error         ErrorBody `json:"error"`
}

// ErrorBody carries the machine-readable rejection: Code is the coarse
// HTTP-dispatch key (bad_request, unknown_kernel, overloaded, deadline,
// infeasible, internal), ErrorCode the stable enum mapped 1:1 from the
// diag failure taxonomy (route_congested, bandwidth_infeasible,
// proved_infeasible, canceled, ...; serve-level rejections reuse their
// Code), and Class the diag failure-class rendering when the compile
// itself failed.
type ErrorBody struct {
	Code      string `json:"code"`
	ErrorCode string `json:"error_code,omitempty"`
	Message   string `json:"message"`
	Class     string `json:"class,omitempty"`
}

// BatchRequestWire is the POST /v1/compile-batch request body: a list
// of compile requests answered per-item under one deadline, compiled on
// the process-wide artifact memo like standalone requests. Items must
// not pin their own schema_version — the batch envelope's version is
// the contract for every item.
type BatchRequestWire struct {
	SchemaVersion int                  `json:"schema_version,omitempty"`
	Items         []CompileRequestWire `json:"items"`
	Options       BatchOptionsSpec     `json:"options"`
}

// BatchOptionsSpec tunes the batch. TimeoutMS bounds the whole batch
// (all items together), not each item.
type BatchOptionsSpec struct {
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BatchResponse is the POST /v1/compile-batch success body. The batch
// itself answers 200 whenever the envelope was valid; per-item outcomes
// (success or typed error) live in Items, index-aligned with the
// request. Aggregate cache accounting travels in the
// X-Himap-Batch-Cache response header, never in the body. The server
// appends these bytes by hand (what json.Marshal of this type renders,
// pinned by the batch golden); clients decode with it.
type BatchResponse struct {
	SchemaVersion int               `json:"schema_version"`
	Items         []BatchItemResult `json:"items"`
}

// BatchItemResult is one batch item's outcome. Status is the HTTP
// status the item would have answered standalone; Result is the exact
// /v1/compile success object (the standalone body minus its trailing
// newline), so batch and single-compile responses stay byte-comparable.
type BatchItemResult struct {
	OK     bool            `json:"ok"`
	Status int             `json:"status"`
	Error  *ErrorBody      `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// SSE event names of the /v1/compile stream (selected with Accept:
// text/event-stream). A stream is zero or more stage
// events followed by exactly one terminal event: result on success,
// error on failure. See DESIGN.md, "Serving at scale", for the full
// event grammar.
const (
	// StreamEventStage carries a StageEventWire datum — one executed
	// pipeline stage, in tracer emission order.
	StreamEventStage = "stage"
	// StreamEventResult carries the CompileResponse object (identical to
	// the non-streaming body minus the trailing newline).
	StreamEventResult = "result"
	// StreamEventError carries the ErrorResponse object the request
	// would have answered without streaming.
	StreamEventError = "error"
)

// StageEventWire is the "stage" stream event datum: one diag tracer
// span rendered to the wire. Counters marshal with sorted keys
// (encoding/json map ordering), so a span renders deterministically.
type StageEventWire struct {
	Stage    string           `json:"stage"`
	Attempt  int              `json:"attempt,omitempty"`
	Wave     int              `json:"wave,omitempty"` // the span's launch generation (diag.Span.Wave)
	WallUS   int64            `json:"wall_us"`
	Err      string           `json:"err,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// KernelsResponse is the GET /v1/kernels body.
type KernelsResponse struct {
	SchemaVersion int          `json:"schema_version"`
	Kernels       []KernelInfo `json:"kernels"`
}

// KernelInfo is one registry entry.
type KernelInfo struct {
	Name  string `json:"name"`
	Desc  string `json:"desc,omitempty"`
	Suite string `json:"suite,omitempty"`
	Dim   int    `json:"dim"`
	Ops   int    `json:"ops"`
}

// decodeStrict is the one decoder of untrusted request bodies: at most
// maxRequestBytes are read, unknown fields and trailing garbage are
// ErrBadRequest (keeping the wire contract honest about what the server
// actually interprets), and the body's schema_version must be omitted
// or equal to SchemaVersion.
func decodeStrict[T any](r io.Reader, version func(*T) int) (*T, error) {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(r), maxRequestBytes))
	dec.DisallowUnknownFields()
	req := new(T)
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after request object", ErrBadRequest)
	}
	if v := version(req); v != 0 && v != SchemaVersion {
		return nil, fmt.Errorf("%w: unsupported schema_version %d (server speaks %d)", ErrBadRequest, v, SchemaVersion)
	}
	return req, nil
}

// DecodeRequest strictly decodes a compile request (see decodeStrict).
func DecodeRequest(r io.Reader) (*CompileRequestWire, error) {
	return decodeStrict(r, func(q *CompileRequestWire) int { return q.SchemaVersion })
}

// DecodeBatchRequest strictly decodes a batch request. Items must not
// pin their own schema_version: the envelope's governs every item.
func DecodeBatchRequest(r io.Reader) (*BatchRequestWire, error) {
	req, err := decodeStrict(r, func(q *BatchRequestWire) int { return q.SchemaVersion })
	if err != nil {
		return nil, err
	}
	if len(req.Items) == 0 {
		return nil, fmt.Errorf("%w: batch has no items", ErrBadRequest)
	}
	if req.Options.TimeoutMS < 0 {
		return nil, fmt.Errorf("%w: timeout_ms must be non-negative", ErrBadRequest)
	}
	for i := range req.Items {
		if req.Items[i].SchemaVersion != 0 {
			return nil, fmt.Errorf("%w: items[%d] pins schema_version %d; the batch envelope's version governs every item",
				ErrBadRequest, i, req.Items[i].SchemaVersion)
		}
	}
	return req, nil
}

// CacheKey is the content address of a request: the SHA-256 of its
// canonical JSON with TimeoutMS zeroed (the timeout bounds the compile,
// it cannot change the mapping) and SchemaVersion always written out,
// so an omitted version shares keys with an explicit pin. Two requests
// with equal keys receive byte-identical responses.
func CacheKey(req *CompileRequestWire) string {
	norm := *req
	norm.Options.TimeoutMS = 0
	norm.SchemaVersion = SchemaVersion
	b, err := json.Marshal(&norm)
	if err != nil {
		// Marshal of this struct cannot fail (no channels/funcs/cycles);
		// keep a deterministic fallback anyway.
		b = []byte(fmt.Sprintf("%+v", norm))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// condKinds maps wire guard names to DSL kinds.
var condKinds = map[string]kernel.CondKind{
	"first": kernel.CondFirst, "last": kernel.CondLast,
	"not_first": kernel.CondNotFirst, "not_last": kernel.CondNotLast,
	"eq_dims": kernel.CondEqDims, "ne_dims": kernel.CondNeDims,
	"index_eq": kernel.CondIndexEq, "index_lt": kernel.CondIndexLt,
}

// Build converts the inline wire specification into a kernel. The result
// still goes through Kernel.Validate inside the compile, so Build only
// checks what the conversion itself needs (enumeration names, affine-row
// arity against Dim).
func (ks *KernelSpec) Build() (*kernel.Kernel, error) {
	if ks.Name == "" {
		return nil, fmt.Errorf("%w: spec.name is required", ErrBadRequest)
	}
	if ks.Dim < 1 || ks.Dim > 8 {
		return nil, fmt.Errorf("%w: spec.dim %d out of range [1,8]", ErrBadRequest, ks.Dim)
	}
	for _, b := range append([]int{ks.MinBlock}, ks.FixedBlock...) {
		if b < 0 || b > maxBlock {
			return nil, fmt.Errorf("%w: spec min_block or fixed_block entry %d outside [0,%d]", ErrBadRequest, b, maxBlock)
		}
	}
	k := &kernel.Kernel{
		Name:       ks.Name,
		Desc:       "inline wire specification",
		Dim:        ks.Dim,
		MinBlock:   ks.MinBlock,
		FixedBlock: append([]int(nil), ks.FixedBlock...),
	}
	for _, tw := range ks.Tensors {
		rows := append([]AffineRow(nil), tw.Dims...)
		for _, row := range rows {
			if len(row.Coef) != ks.Dim {
				return nil, fmt.Errorf("%w: tensor %q dims row has %d coefs, want %d",
					ErrBadRequest, tw.Name, len(row.Coef), ks.Dim)
			}
		}
		k.Tensors = append(k.Tensors, kernel.TensorSpec{
			Name: tw.Name,
			Out:  tw.Out,
			Dims: func(block []int) []int {
				out := make([]int, len(rows))
				for r, row := range rows {
					v := row.Off
					for d, c := range row.Coef {
						v += c * block[d]
					}
					out[r] = v
				}
				return out
			},
		})
	}
	for i, bw := range ks.Body {
		// A body op is a compute kind or route, named as ir renders it.
		kind, ok := ir.ParseOpKind(bw.Op)
		if !ok || !kind.IsCompute() && kind != ir.OpRoute {
			return nil, fmt.Errorf("%w: body op %d has unknown op kind %q", ErrBadRequest, i, bw.Op)
		}
		op := kernel.BodyOp{Name: bw.Name, Kind: kind}
		if op.Name == "" {
			op.Name = fmt.Sprintf("op%d", i)
		}
		var err error
		if op.A, err = buildInput(bw.A, ks.Dim); err != nil {
			return nil, fmt.Errorf("body op %d input a: %w", i, err)
		}
		if op.B, err = buildInput(bw.B, ks.Dim); err != nil {
			return nil, fmt.Errorf("body op %d input b: %w", i, err)
		}
		for _, sw := range bw.Stores {
			when, err := buildPred(sw.When)
			if err != nil {
				return nil, fmt.Errorf("body op %d store: %w", i, err)
			}
			op.Stores = append(op.Stores, kernel.StoreRule{
				When: when, Tensor: sw.Tensor, Map: buildAffine(sw.Map),
			})
		}
		k.Body = append(k.Body, op)
	}
	return k, nil
}

func buildInput(cases []CaseWire, dim int) (kernel.Input, error) {
	var in kernel.Input
	for _, cw := range cases {
		when, err := buildPred(cw.When)
		if err != nil {
			return nil, err
		}
		src, err := buildSource(cw.Src, dim)
		if err != nil {
			return nil, err
		}
		in = append(in, kernel.Case{When: when, Src: src})
	}
	return in, nil
}

func buildPred(conds []CondWire) (kernel.Pred, error) {
	var p kernel.Pred
	for _, cw := range conds {
		kind, ok := condKinds[cw.Kind]
		if !ok {
			return nil, fmt.Errorf("%w: unknown condition kind %q", ErrBadRequest, cw.Kind)
		}
		p = append(p, kernel.Cond{Kind: kind, Dim: cw.Dim, Dim2: cw.Dim2, Val: cw.Val})
	}
	return p, nil
}

func buildSource(sw SourceWire, dim int) (kernel.Source, error) {
	switch sw.Kind {
	case "dep":
		return kernel.Source{Kind: kernel.SrcDep, Op: sw.Op, Dist: ir.IterVec(append([]int(nil), sw.Dist...))}, nil
	case "mem":
		return kernel.Source{Kind: kernel.SrcMem, Tensor: sw.Tensor, Map: buildAffine(sw.Map)}, nil
	case "const":
		return kernel.Source{Kind: kernel.SrcConst, Value: sw.Value}, nil
	}
	return kernel.Source{}, fmt.Errorf("%w: unknown source kind %q (want dep|mem|const)", ErrBadRequest, sw.Kind)
}

func buildAffine(rows []AffineRow) kernel.AffineMap {
	var m kernel.AffineMap
	for _, row := range rows {
		m.Coef = append(m.Coef, append([]int(nil), row.Coef...))
		m.Off = append(m.Off, row.Off)
	}
	return m
}

// BitstreamBytes is the canonical binary dump of a configuration-memory
// image: a fixed header (magic, II, NDirs, rows, cols) followed per PE by
// the word count, the words, and the II schedule indices, all
// little-endian uint32 except the raw word bytes. The layout is fully
// determined by the Bitstream content, so equal mappings dump to equal
// bytes.
func BitstreamBytes(bs *himap.Bitstream) []byte {
	size := 4 + 4*4 // magic and the four header fields
	for r := range bs.Words {
		for c, words := range bs.Words[r] {
			size += 4 + 4*len(bs.Schedule[r][c])
			for _, w := range words {
				size += len(w)
			}
		}
	}
	out := make([]byte, 0, size)
	put := func(v int) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		out = append(out, b[:]...)
	}
	out = append(out, 'H', 'M', 'B', 'S')
	put(bs.II)
	put(bs.NDirs)
	put(len(bs.Words))
	cols := 0
	if len(bs.Words) > 0 {
		cols = len(bs.Words[0])
	}
	put(cols)
	for r := range bs.Words {
		for c := range bs.Words[r] {
			put(len(bs.Words[r][c]))
			for _, w := range bs.Words[r][c] {
				out = append(out, w...)
			}
			for _, idx := range bs.Schedule[r][c] {
				put(idx)
			}
		}
	}
	return out
}
