package himap_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"himap"
	"himap/internal/diag"
)

// These tests pin the error taxonomy of the staged pipeline through the
// public API: every failure class is reachable, carries its sentinel
// through errors.Is, and aggregates into a *CompileError recoverable with
// errors.As. Each test uses a fresh Memo so the shared artifact cache
// cannot leak state between constructions.

func freshOpts() himap.Options {
	return himap.Options{Workers: 1, Memo: himap.NewMemo()}
}

// TestErrNoSubMapping: a 1×1 CGRA whose configuration depth cannot hold
// one iteration's compute ops admits no IDFG → sub-CGRA mapping at all,
// so the front pipeline fails in idfg-map before any attempt runs.
func TestErrNoSubMapping(t *testing.T) {
	k := himap.KernelBICG()
	cg := himap.DefaultCGRA(1, 1)
	cg.ConfigDepth = 2
	_, err := compile(k, cg, freshOpts())
	if err == nil {
		t.Fatal("expected failure on depth-2 1x1 CGRA")
	}
	if !errors.Is(err, himap.ErrNoSubMapping) {
		t.Fatalf("want ErrNoSubMapping, got %v", err)
	}
	var ce *himap.CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("errors.As must recover *CompileError from %v", err)
	}
	if ce.Attempts != 0 {
		t.Errorf("front-stage failure must report 0 attempts, got %d", ce.Attempts)
	}
	if ce.Primary == nil || ce.Primary.Stage != "idfg-map" {
		t.Errorf("primary failure should be stage idfg-map, got %+v", ce.Primary)
	}
}

// TestErrBlockTooSmall: on a full-depth 1×1 CGRA sub-mappings exist, but
// every derived block collapses below the kernel's minimum extent.
func TestErrBlockTooSmall(t *testing.T) {
	_, err := compile(himap.KernelBICG(), himap.DefaultCGRA(1, 1), freshOpts())
	if err == nil {
		t.Fatal("expected failure on 1x1 CGRA")
	}
	if !errors.Is(err, himap.ErrBlockTooSmall) {
		t.Fatalf("want ErrBlockTooSmall, got %v", err)
	}
}

// TestErrBlockPinConflict: forcing CONV2D's pinned window dimensions onto
// the VSA space axes asks for block extents that contradict the pins.
func TestErrBlockPinConflict(t *testing.T) {
	opts := freshOpts()
	opts.ForceScheme = &himap.Scheme{SpaceDims: []int{2, 3}, TimePerm: []int{0, 1}, Skew: []int{0, 0}}
	_, err := compile(himap.KernelConv2D(), himap.DefaultCGRA(8, 8), opts)
	if err == nil {
		t.Fatal("expected pin conflict")
	}
	if !errors.Is(err, himap.ErrBlockPinConflict) {
		t.Fatalf("want ErrBlockPinConflict, got %v", err)
	}
	if errors.Is(err, himap.ErrRouteCongested) {
		t.Error("must not match an unrelated class")
	}
}

// TestErrSchemeInfeasible: a forced scheme that does not cover the kernel
// dimensions is rejected by the block-derive shape guard as infeasible
// rather than panicking inside Realize.
func TestErrSchemeInfeasible(t *testing.T) {
	opts := freshOpts()
	opts.ForceScheme = &himap.Scheme{SpaceDims: []int{0, 1}, Skew: []int{0, 1}}
	_, err := compile(himap.KernelGEMM(), himap.DefaultCGRA(8, 8), opts)
	if err == nil {
		t.Fatal("expected infeasible scheme")
	}
	if !errors.Is(err, himap.ErrSchemeInfeasible) {
		t.Fatalf("want ErrSchemeInfeasible, got %v", err)
	}
	var se *himap.StageError
	if !errors.As(err, &se) {
		t.Fatalf("errors.As must recover *StageError from %v", err)
	}
	if se.Stage != "block-derive" || se.Kernel != "GEMM" {
		t.Errorf("stage context not stamped: %+v", se)
	}
}

// TestErrRouteCongested: GEMM on an 8x8 mesh whose memory ports sit on
// the two boundary columns admits only full-width sub-CGRAs, and every
// one of its attempts congests: the compile fails with the route class,
// led by attempt 1's route stage, after every attempt ran.
func TestErrRouteCongested(t *testing.T) {
	fab := himap.DefaultFabric(8, 8)
	fab.Mem = himap.MemBoundary
	_, err := compileFabric(himap.KernelGEMM(), fab, freshOpts())
	if !errors.Is(err, himap.ErrRouteCongested) {
		t.Fatalf("want ErrRouteCongested, got %v", err)
	}
	var ce *himap.CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("errors.As must recover *CompileError from %v", err)
	}
	if ce.Primary == nil || ce.Primary.Stage != "route" || ce.Primary.Attempt != 1 {
		t.Errorf("primary failure %+v, want stage route at attempt 1", ce.Primary)
	}
	if len(ce.Stages) != 1 {
		t.Errorf("failures in %d stages, want route alone: %v", len(ce.Stages), ce.Stages)
	}
	if ce.Attempts != 24 {
		t.Errorf("%d attempts, want all 24", ce.Attempts)
	}
}

// TestCompileErrorDeterministic pins the failure-path contract: when every
// attempt fails, the aggregated error — primary failure, attempt count,
// and rendered message — is identical for any Workers value, because the
// primary is always the lowest-ranked attempt's failure, not whichever
// goroutine lost last.
func TestCompileErrorDeterministic(t *testing.T) {
	bad := &himap.Scheme{SpaceDims: []int{0, 1}, Skew: []int{0, 1}}
	run := func(workers int) error {
		opts := himap.Options{Workers: workers, Memo: himap.NewMemo(), ForceScheme: bad}
		_, err := compile(himap.KernelGEMM(), himap.DefaultCGRA(8, 8), opts)
		return err
	}
	e1, e4 := run(1), run(4)
	if e1 == nil || e4 == nil {
		t.Fatal("expected both runs to fail")
	}
	if e1.Error() != e4.Error() {
		t.Errorf("failure message depends on Workers:\n  W=1: %s\n  W=4: %s", e1, e4)
	}
	var c1, c4 *himap.CompileError
	if !errors.As(e1, &c1) || !errors.As(e4, &c4) {
		t.Fatal("both errors must be *CompileError")
	}
	if c1.Attempts != c4.Attempts {
		t.Errorf("attempt count differs: %d vs %d", c1.Attempts, c4.Attempts)
	}
	if c1.Attempts < 2 {
		t.Fatalf("construction too weak: need multiple failing attempts, got %d", c1.Attempts)
	}
	if c1.Primary.Attempt != 1 {
		t.Errorf("primary must be the lowest-ranked attempt, got attempt %d", c1.Primary.Attempt)
	}
	if !strings.Contains(e1.Error(), "GEMM") || !strings.Contains(e1.Error(), "8x8") {
		t.Errorf("message must carry kernel and CGRA context: %s", e1)
	}
}

// TestKernelPinBelowMinimumRejected: a FixedBlock entry below MinBlock is
// an internally contradictory specification; Kernel.Validate rejects it
// with the typed pin-conflict class, and Compile surfaces the same class
// before any mapping work starts.
func TestKernelPinBelowMinimumRejected(t *testing.T) {
	k := *himap.KernelGEMM()
	k.MinBlock = 4
	k.FixedBlock = []int{2}
	if err := k.Validate(); !errors.Is(err, himap.ErrBlockPinConflict) {
		t.Fatalf("Kernel.Validate: want ErrBlockPinConflict, got %v", err)
	}
	_, err := compile(&k, himap.DefaultCGRA(8, 8), freshOpts())
	if !errors.Is(err, himap.ErrBlockPinConflict) {
		t.Fatalf("Compile: want ErrBlockPinConflict, got %v", err)
	}
}

// TestErrConfigInvalidFromLoadConfig: every rejection in the JSON config
// decoder — malformed syntax, unknown fields, bad version, bad topology,
// inconsistent caps grid — carries ErrConfigInvalid, so callers dispatch
// on the class without parsing messages.
func TestErrConfigInvalidFromLoadConfig(t *testing.T) {
	cases := map[string]string{
		"malformed":   `{"version": 1,`,
		"unknown":     `{"version": 1, "bogus_field": true}`,
		"bad version": `{"version": 99}`,
		"topology":    `{"version": 3, "rows": 4, "cols": 4, "topology": "hypercube"}`,
		"mem policy":  `{"version": 3, "rows": 4, "cols": 4, "mem_policy": "everywhere-but-corners"}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := himap.LoadConfig(strings.NewReader(in))
			if err == nil {
				t.Fatal("expected decode failure")
			}
			if !errors.Is(err, himap.ErrConfigInvalid) {
				t.Fatalf("want ErrConfigInvalid, got %v", err)
			}
		})
	}
}

// TestErrConfigInvalidFromParsers: the fabric parse rejects an unknown
// name in any class with the same class as the decoder.
func TestErrConfigInvalidFromParsers(t *testing.T) {
	cg := himap.DefaultCGRA(4, 4)
	for _, names := range [][4]string{
		{"hypercube", "", "", ""},
		{"", "everywhere-but-corners", "", ""},
		{"", "", "quad", ""},
		{"", "", "", "military"},
	} {
		if _, err := himap.ParseFabric(cg, names[0], names[1], names[2], names[3]); !errors.Is(err, himap.ErrConfigInvalid) {
			t.Errorf("ParseFabric%q: want ErrConfigInvalid, got %v", names, err)
		}
	}
	// Of two unknown names, the first in argument order is reported, as
	// when each entry point parsed the classes one by one.
	if _, err := himap.ParseFabric(cg, "", "corners", "quad", ""); err == nil || !strings.Contains(err.Error(), `"corners"`) {
		t.Errorf(`ParseFabric with two unknown names: %v, want the memory policy "corners" reported`, err)
	}
}

// TestErrConfigInvalidFromValidate: the simulator's precondition checks
// are typed too — a non-positive block count is a caller bug surfaced as
// ErrConfigInvalid, not a panic or an anonymous error.
func TestErrConfigInvalidFromValidate(t *testing.T) {
	res, err := compile(himap.KernelGEMM(), himap.DefaultCGRA(4, 4), freshOpts())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if verr := himap.Validate(res, 0, 7); !errors.Is(verr, himap.ErrConfigInvalid) {
		t.Fatalf("Validate(nblocks=0): want ErrConfigInvalid, got %v", verr)
	}
}

// TestBaselineTypedErrors: the conventional mapper fails its node wall
// with ErrTooLarge at the dfg-build stage and ends a compile whose
// context deadline has passed with ErrCanceled wrapping
// context.DeadlineExceeded — the context is its only time bound.
func TestBaselineTypedErrors(t *testing.T) {
	checkFlatBackendErrors(t, himap.MapperConventional)
}

// TestExactTypedErrors: the exact mapper reports the same classes, and
// its deadline error also names the II lower bound it proved — with no
// II searched, the static bound it stopped at.
func TestExactTypedErrors(t *testing.T) {
	err := checkFlatBackendErrors(t, himap.MapperExact)
	var se *himap.StageError
	if !errors.As(err, &se) || se.Attempt < 1 ||
		!strings.Contains(err.Error(), fmt.Sprintf("at II %d after 0 decisions; proved II ≥ %d", se.Attempt, se.Attempt)) {
		t.Errorf("exact deadline error does not name the proved lower bound: %v", err)
	}
}

// checkFlatBackendErrors compiles GEMM on 4x4 with mapper m at block
// 8x8x8, whose 2048 body-op instances pass both flat backends' node
// walls, then at 2x2x2 on a fabric with no memory PE and under an expired
// deadline, checks the three failure classes, and returns the deadline
// error.
func checkFlatBackendErrors(t *testing.T, m himap.Mapper) error {
	t.Helper()
	req := himap.Request{Kernel: himap.KernelGEMM(), Fabric: himap.DefaultFabric(4, 4), Mapper: m, Block: []int{8, 8, 8}}
	_, err := himap.CompileRequest(context.Background(), req)
	var se *himap.StageError
	if !errors.Is(err, himap.ErrTooLarge) || !errors.As(err, &se) || se.Stage != "dfg-build" {
		t.Errorf("%s past its wall: %v, want a dfg-build ErrTooLarge", m, err)
	}
	req.Block = []int{2, 2, 2}
	// The resource bound refuses the loads before any placement move.
	none := req
	none.Fabric.Mem = himap.MemNone
	_, err = himap.CompileRequest(context.Background(), none)
	if !errors.Is(err, himap.ErrMemPortInfeasible) || !errors.As(err, &se) || se.Kernel != "GEMM" {
		t.Errorf("%s on a fabric with no memory PE: %v, want ErrMemPortInfeasible naming GEMM", m, err)
	}
	expired, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	_, err = himap.CompileRequest(expired, req)
	if !errors.Is(err, himap.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("%s under an expired deadline: %v, want ErrCanceled wrapping DeadlineExceeded", m, err)
	}
	return err
}

// TestCompileErrorUnwrapExposesStages: the aggregate exposes each stage's
// best-ranked failure, so callers can match any class that occurred.
func TestCompileErrorUnwrapExposesStages(t *testing.T) {
	opts := freshOpts()
	opts.ForceScheme = &himap.Scheme{SpaceDims: []int{0, 1}, Skew: []int{0, 1}}
	_, err := compile(himap.KernelGEMM(), himap.DefaultCGRA(8, 8), opts)
	var ce *himap.CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CompileError, got %v", err)
	}
	if len(ce.Stages) == 0 {
		t.Fatal("CompileError must aggregate per-stage failures")
	}
	for _, se := range ce.Stages {
		if se.Stage == "" {
			t.Errorf("aggregated stage failure missing stage name: %+v", se)
		}
	}
}

// TestNilKernelTypedError: a nil Request.Kernel fails with a typed diag
// error wrapping ErrInvalidRequest — never a panic — for every backend
// and for the empty (default) mapper, before any backend code runs.
func TestNilKernelTypedError(t *testing.T) {
	mappers := append([]himap.Mapper{""}, himap.Backends()...)
	for _, m := range mappers {
		m := m
		t.Run(string(m), func(t *testing.T) {
			_, err := himap.CompileRequest(context.Background(), himap.Request{
				Mapper: m,
				Fabric: himap.DefaultFabric(4, 4),
			})
			if err == nil {
				t.Fatal("nil kernel compiled")
			}
			if !errors.Is(err, himap.ErrInvalidRequest) {
				t.Errorf("error %v does not wrap ErrInvalidRequest", err)
			}
			var se *himap.StageError
			if !errors.As(err, &se) {
				t.Fatalf("error %v is not a *StageError", err)
			}
			if se.Stage != "request" {
				t.Errorf("stage %q, want %q", se.Stage, "request")
			}
		})
	}
}

// TestRequestRefusals: the root CompileRequest refuses, before any
// stage runs, a negative inner block for every mapper and a mapper it
// does not know, each with a *StageError of stage "request" wrapping
// ErrInvalidRequest.
func TestRequestRefusals(t *testing.T) {
	type row struct {
		name string
		req  himap.Request
		want string
	}
	var rows []row
	for _, m := range append([]himap.Mapper{""}, himap.Backends()...) {
		req := himap.Request{Kernel: himap.KernelMVT(), Mapper: m, Fabric: himap.DefaultFabric(4, 4), Options: himap.Options{InnerBlock: -1}}
		if m == himap.MapperConventional || m == himap.MapperExact {
			req.Block = []int{2, 2} // small enough that a flat mapper ignoring the option returns at once
		}
		rows = append(rows, row{"inner -1/" + string(m), req, "inner block -1 is negative"})
	}
	rows = append(rows, row{"unknown mapper", himap.Request{Kernel: himap.KernelGEMM(), Mapper: "magic",
		Fabric: himap.DefaultFabric(8, 8)}, `unknown mapper "magic"`})
	for _, r := range rows {
		var spans int
		tracer := diag.TracerFunc(func(himap.TraceSpan) { spans++ })
		r.req.Options.Tracer, r.req.Baseline.Tracer, r.req.Exact.Tracer = tracer, tracer, tracer
		_, err := himap.CompileRequest(context.Background(), r.req)
		var se *himap.StageError
		if !errors.Is(err, himap.ErrInvalidRequest) || !errors.As(err, &se) || se.Stage != "request" || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: %v, want a request-stage ErrInvalidRequest containing %q", r.name, err, r.want)
		}
		if spans != 0 {
			t.Errorf("%s: %d stage spans before the refusal, want none", r.name, spans)
		}
	}
}

// TestInvalidRequestsRefusedByEveryMapper: a fabric whose array is
// invalid fails every mapper with ErrConfigInvalid before any mapping
// work, and a block of the wrong rank fails each flat mapper at its
// unroll.
func TestInvalidRequestsRefusedByEveryMapper(t *testing.T) {
	bad := himap.DefaultFabric(4, 4)
	bad.NumRegs = 0
	for _, m := range himap.Backends() {
		_, err := himap.CompileRequest(context.Background(), himap.Request{Kernel: himap.KernelMVT(), Mapper: m, Fabric: bad})
		if !errors.Is(err, himap.ErrConfigInvalid) || !strings.Contains(err.Error(), "0 registers") {
			t.Errorf("%s on a fabric without registers: %v, want ErrConfigInvalid", m, err)
		}
	}
	for _, m := range []himap.Mapper{himap.MapperConventional, himap.MapperExact} {
		_, err := himap.CompileRequest(context.Background(), himap.Request{
			Kernel: himap.KernelMVT(), Mapper: m, Fabric: himap.DefaultFabric(4, 4), Block: []int{2}})
		if err == nil || !strings.Contains(err.Error(), "block [2] has 1 dims, want 2") {
			t.Errorf("%s with a 1-dim block for MVT: %v", m, err)
		}
	}
}
