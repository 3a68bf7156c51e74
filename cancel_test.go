package himap_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"himap"
)

// cancelTracer cancels a context the first time any pipeline stage
// completes — aborting the compile mid-pipeline, after work has started
// but before any mapping can have been committed.
type cancelTracer struct {
	once   sync.Once
	cancel context.CancelFunc
}

func (t *cancelTracer) Emit(himap.TraceSpan) { t.once.Do(t.cancel) }

func TestCompileRequestCancellationMidPipeline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelTracer{cancel: cancel}
	res, err := himap.CompileRequest(ctx, himap.Request{
		Kernel: himap.KernelGEMM(),
		Fabric: himap.DefaultFabric(4, 4),
		Options: himap.Options{
			Workers: 4,
			Tracer:  tr,
			Memo:    himap.NewMemo(), // cold cache: the canceled stages really run
		},
	})
	if err == nil {
		t.Fatalf("compile committed a mapping despite cancellation: %v", res.Summary())
	}
	if !errors.Is(err, himap.ErrCanceled) {
		t.Fatalf("errors.Is(err, ErrCanceled) = false: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("original context error lost from the cause chain: %v", err)
	}
	var ce *himap.CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("cancellation not wrapped in *CompileError: %T %v", err, err)
	}
	var se *himap.StageError
	if !errors.As(err, &se) {
		t.Fatalf("no StageError in the chain: %v", err)
	}
	if !errors.Is(se.Class, himap.ErrCanceled) {
		t.Errorf("stage error class = %v, want ErrCanceled", se.Class)
	}
}

func TestCompileRequestPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		req  himap.Request
	}{
		{"himap", himap.Request{Kernel: himap.KernelGEMM(), Fabric: himap.DefaultFabric(4, 4)}},
		{"conventional", himap.Request{
			Kernel: himap.KernelMVT(), Fabric: himap.DefaultFabric(4, 4),
			Mapper: himap.MapperConventional, Block: []int{3, 3},
			Baseline: himap.BaselineOptions{Seed: 2},
		}},
	} {
		_, err := himap.CompileRequest(ctx, tc.req)
		if err == nil {
			t.Errorf("%s: pre-canceled context compiled anyway", tc.name)
			continue
		}
		if !errors.Is(err, himap.ErrCanceled) {
			t.Errorf("%s: errors.Is(err, ErrCanceled) = false: %v", tc.name, err)
		}
	}
}

func TestCompileRequestUnknownMapper(t *testing.T) {
	_, err := himap.CompileRequest(context.Background(), himap.Request{
		Kernel: himap.KernelGEMM(), Fabric: himap.DefaultFabric(4, 4), Mapper: "magic",
	})
	if err == nil {
		t.Fatal("unknown mapper accepted")
	}
}
