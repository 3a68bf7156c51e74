package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"himap"
	"himap/internal/kernel"
)

// gemm8x8 is the result the serve.encode.ms probe of bench/ renders: one
// direct GEMM 8x8 compile.
func gemm8x8(tb testing.TB) *himap.Result {
	tb.Helper()
	wire := CompileRequestWire{Kernel: "GEMM", Fabric: FabricSpec{Rows: 8, Cols: 8}}
	hreq, err := BuildRequest(&wire, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := himap.CompileRequest(context.Background(), hreq)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// mallocsAndBytes reports what one call of fn allocates.
func mallocsAndBytes(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestEncodeResponseAllocCeiling pins "every byte written once": beyond
// packing the bitstream (himap.EncodeBitstream, one small word per
// instruction — not this package's to spend), rendering a response makes
// a fixed number of allocations — the head fields through encoding/json,
// the capability grid's row strings, the image, the body: 17, 23 under
// the race detector — where one per instruction would be 576, and all of
// it stays under 2.2x the body. Building the body through an indented
// buffer, a compacted copy and a growing bytes.Buffer took 5x; a
// rendering that grows by doubling takes 3x.
func TestEncodeResponseAllocCeiling(t *testing.T) {
	res := gemm8x8(t)
	var body []byte
	encode := func() {
		var err error
		if body, err = EncodeResponse(res); err != nil {
			t.Fatal(err)
		}
	}
	pack := func() {
		if _, err := himap.EncodeBitstream(res.Config); err != nil {
			t.Fatal(err)
		}
	}
	encode() // warm encoding/json's type cache
	pack()
	packMallocs, _ := mallocsAndBytes(pack)
	mallocs, total := mallocsAndBytes(encode)
	t.Logf("GEMM 8x8: body %d bytes; %d mallocs (%d packing the bitstream), %d bytes = %.2fx body",
		len(body), mallocs, packMallocs, total, float64(total)/float64(len(body)))
	if rendering := int64(mallocs) - int64(packMallocs); rendering > 32 {
		t.Errorf("rendering made %d allocations beyond the bitstream's %d, ceiling is 32", rendering, packMallocs)
	}
	if limit := uint64(2.2 * float64(len(body))); total > limit {
		t.Errorf("EncodeResponse allocated %d bytes for a %d-byte body, ceiling is %d (2.2x)", total, len(body), limit)
	}
}

// TestEncodeResponseInfersMapper: a result that did not come through
// himap.CompileRequest (a test's stub, a direct backend call) carries no
// Backend stamp; its body must name the mapper its payload shows, and so
// equal the stamped result's body.
func TestEncodeResponseInfersMapper(t *testing.T) {
	for _, body := range []string{
		kernelRequest("MVT", 4, 4),
		`{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{"mapper":"conventional","block":[2,2],"seed":1}}`,
		`{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{"mapper":"exact","block":[2,2]}}`,
	} {
		wire, err := DecodeRequest(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq, err := BuildRequest(wire, Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := himap.CompileRequest(context.Background(), hreq)
		if err != nil {
			t.Fatal(err)
		}
		stamped, err := EncodeResponse(res)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"mapper":"` + string(hreq.Mapper) + `"`; !bytes.Contains(stamped, []byte(want)) {
			t.Fatalf("%s: body does not carry %s", hreq.Mapper, want)
		}
		bare := *res
		bare.Backend = ""
		inferred, err := EncodeResponse(&bare)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(inferred, stamped) {
			t.Errorf("%s: without its Backend stamp the result renders differently: %.200s", hreq.Mapper, inferred)
		}
	}
}

// TestWriteBodySetsContentLength: every complete-body response says how
// long it is (so net/http does not chunk it), on each cache path, for
// errors and for the batch envelope; SSE streams are the one exception.
// The body is read back through an http.Client: a length one short of
// the trailing newline arrives without the newline, one too long is a
// short read.
func TestWriteBodySetsContentLength(t *testing.T) {
	check := func(name, wantCache string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("%s: reading the body: %v", name, err)
		}
		if got := resp.Header.Get("X-Himap-Cache"); got != wantCache {
			t.Errorf("%s: X-Himap-Cache %q, want %q", name, got, wantCache)
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: sent with Transfer-Encoding %v", name, resp.TransferEncoding)
		}
		if resp.ContentLength != int64(len(body)) || len(body) == 0 {
			t.Errorf("%s: Content-Length %d, body %d bytes", name, resp.ContentLength, len(body))
		}
		if !bytes.HasSuffix(body, []byte("}\n")) {
			t.Errorf("%s: body does not end in its closing brace and newline: %.40q", name, body[max(len(body)-40, 0):])
		}
	}
	post := func(url, path, body string) (*http.Response, error) {
		return http.Post(url+path, "application/json", strings.NewReader(body))
	}

	dir := t.TempDir()
	req := kernelRequest("MVT", 4, 4)
	_, ts := newTestServer(t, Config{StoreDir: dir})
	resp, err := post(ts.URL, "/v1/compile", req)
	check("miss", "miss", resp, err)
	resp, err = post(ts.URL, "/v1/compile", req)
	check("hit", "hit", resp, err)
	resp, err = post(ts.URL, "/v1/compile", kernelRequest("NOPE", 4, 4))
	check("error 404", "", resp, err)
	resp, err = post(ts.URL, "/v1/compile", `{"kernel":`)
	check("error 400", "", resp, err)
	resp, err = post(ts.URL, "/v1/compile-batch", `{"items":[`+req+`,`+kernelRequest("NOPE", 4, 4)+`],"options":{}}`)
	check("batch", "", resp, err)
	resp, err = http.Get(ts.URL + "/v1/kernels")
	check("kernels", "", resp, err)

	_, ts = newTestServer(t, Config{StoreDir: dir}) // restart: the LRU is empty, the store is not
	resp, err = post(ts.URL, "/v1/compile", req)
	check("store", "store", resp, err)

	// Two identical requests in flight: one compiles, one waits for its
	// bytes. The compile is held until the follower is parked.
	s, ts := newTestServer(t, Config{})
	gate := make(chan struct{})
	s.SetCompileFunc(func(ctx context.Context, req himap.Request) (*himap.Result, error) {
		<-gate
		return himap.CompileRequest(ctx, req)
	})
	type answer struct {
		resp *http.Response
		err  error
	}
	answers := make(chan answer, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := post(ts.URL, "/v1/compile", req)
			answers <- answer{resp, err}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); s.Metrics().Snapshot().Coalesced != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("the second request never coalesced: %+v", s.Metrics().Snapshot())
		}
	}
	close(gate)
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		a := <-answers
		path := ""
		if a.resp != nil {
			path = a.resp.Header.Get("X-Himap-Cache")
		}
		seen[path] = true
		check("in flight ["+path+"]", path, a.resp, a.err)
	}
	if !seen["miss"] || !seen["coalesced"] {
		t.Errorf("in-flight pair answered on paths %v, want one miss and one coalesced", seen)
	}
}

// BenchmarkServeMiss is the cold served request end to end, in process:
// a fresh server over an empty store directory per iteration, one
// /v1/compile request for each of the eight Table-II kernels on 8x8 —
// decode, build, compile, render, both cache levels, the HTTP write. It
// is the one-command profile of the serving path:
//
//	go test -run '^$' -bench ServeMiss -benchtime 5x -cpuprofile cpu.out ./internal/serve
func BenchmarkServeMiss(b *testing.B) {
	var reqs []string
	for _, k := range kernel.Evaluation() {
		reqs = append(reqs, kernelRequest(k.Name, 8, 8))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(Config{StoreDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		for _, req := range reqs {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/compile", strings.NewReader(req)))
			if w.Code != http.StatusOK || w.Header().Get("X-Himap-Cache") != "miss" {
				b.Fatalf("status %d, X-Himap-Cache %q: %.200s", w.Code, w.Header().Get("X-Himap-Cache"), w.Body.Bytes())
			}
		}
	}
}
