package diag

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageErrorIsAndAs(t *testing.T) {
	cause := fmt.Errorf("7 resources oversubscribed")
	err := Fail(ErrRouteCongested, cause).Stamp("route", "GEMM", "8x8", 3)
	if !errors.Is(err, ErrRouteCongested) {
		t.Error("StageError must unwrap to its class sentinel")
	}
	if errors.Is(err, ErrSchemeInfeasible) {
		t.Error("StageError must not match a different class")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatal("errors.As must recover the StageError")
	}
	if se.Stage != "route" || se.Kernel != "GEMM" || se.CGRA != "8x8" || se.Attempt != 3 {
		t.Errorf("context not stamped: %+v", se)
	}
	for _, want := range []string{"route", "GEMM", "8x8", "attempt 3", "oversubscribed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err.Error(), want)
		}
	}
	// Wrapping keeps the chain intact.
	wrapped := fmt.Errorf("compile failed: %w", err)
	if !errors.Is(wrapped, ErrRouteCongested) {
		t.Error("wrapped StageError lost its class")
	}
}

func TestStampDoesNotOverwrite(t *testing.T) {
	err := Failf(ErrBlockTooSmall, "dim 2 = 1").Stamp("block-derive", "MVT", "4x4", 2)
	err.Stamp("other", "OTHER", "1x1", 9)
	if err.Stage != "block-derive" || err.Kernel != "MVT" || err.Attempt != 2 {
		t.Errorf("Stamp overwrote existing context: %+v", err)
	}
}

func TestTextTracerRendersSpans(t *testing.T) {
	var b strings.Builder
	tr := NewTextTracer(&safeWriter{b: &b})
	tr.Emit(Span{Stage: "idfg-map", Wall: 1500 * time.Microsecond, Counters: map[string]int64{"submaps": 4}})
	tr.Emit(Span{Stage: "route", Attempt: 2, Wave: 1, Wall: time.Millisecond, Err: "congested"})
	out := b.String()
	for _, want := range []string{"idfg-map", "submaps=4", "route", "attempt 2", `err="congested"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output %q missing %q", out, want)
		}
	}
}

type safeWriter struct {
	mu sync.Mutex
	b  *strings.Builder
}

func (w *safeWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Emit(Span{Stage: "place", Attempt: i + 1, Wall: time.Millisecond})
			c.Emit(Span{Stage: "route", Attempt: i + 1, Wall: 2 * time.Millisecond})
		}(i)
	}
	wg.Wait()
	if got := len(c.Spans()); got != 16 {
		t.Fatalf("collected %d spans, want 16", got)
	}
	c.Reset()
	if len(c.Spans()) != 0 {
		t.Error("Reset did not clear spans")
	}
}
