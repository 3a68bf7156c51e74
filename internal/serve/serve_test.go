package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"himap"
	"himap/internal/diag"
	"himap/internal/kernel"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := MustNew(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postCompile(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/compile: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func kernelRequest(name string, rows, cols int) string {
	return fmt.Sprintf(`{"kernel":%q,"fabric":{"rows":%d,"cols":%d},"options":{}}`, name, rows, cols)
}

// TestServedByteIdenticalToDirect is the serving layer's core contract:
// for every evaluation kernel, the HTTP body equals the bytes a direct
// himap.CompileRequest of the same request renders to.
func TestServedByteIdenticalToDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, k := range kernel.Evaluation() {
		resp, served := postCompile(t, ts.URL, kernelRequest(k.Name, 4, 4))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", k.Name, resp.StatusCode, served)
		}
		var wire CompileRequestWire
		if err := json.Unmarshal([]byte(kernelRequest(k.Name, 4, 4)), &wire); err != nil {
			t.Fatal(err)
		}
		hreq, err := BuildRequest(&wire, Config{})
		if err != nil {
			t.Fatalf("%s: BuildRequest: %v", k.Name, err)
		}
		res, err := himap.CompileRequest(context.Background(), hreq)
		if err != nil {
			t.Fatalf("%s: direct compile: %v", k.Name, err)
		}
		direct, err := EncodeResponse(res)
		if err != nil {
			t.Fatalf("%s: EncodeResponse: %v", k.Name, err)
		}
		if !bytes.Equal(served, direct) {
			t.Errorf("%s: served body differs from direct compile (%d vs %d bytes)",
				k.Name, len(served), len(direct))
		}
		var cr CompileResponse
		if err := json.Unmarshal(served, &cr); err != nil {
			t.Fatalf("%s: response not valid JSON: %v", k.Name, err)
		}
		if cr.SchemaVersion != SchemaVersion {
			t.Errorf("%s: schema_version %d, want %d", k.Name, cr.SchemaVersion, SchemaVersion)
		}
		if cr.II < 1 || len(cr.Bitstream) == 0 || len(cr.Config) == 0 {
			t.Errorf("%s: incomplete response: ii=%d bitstream=%dB config=%dB",
				k.Name, cr.II, len(cr.Bitstream), len(cr.Config))
		}
	}
}

// TestCacheHitIdenticalBytes: a repeated request is served from the
// cache — byte-identical body, hit marker in the header only.
func TestCacheHitIdenticalBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := kernelRequest("MVT", 4, 4)
	resp1, body1 := postCompile(t, ts.URL, req)
	resp2, body2 := postCompile(t, ts.URL, req)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d / %d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp1.Header.Get("X-Himap-Cache"); got != "miss" {
		t.Errorf("first request cache header %q, want miss", got)
	}
	if got := resp2.Header.Get("X-Himap-Cache"); got != "hit" {
		t.Errorf("second request cache header %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached body differs from compiled body")
	}
	snap := s.Metrics().Snapshot()
	if snap.Compiles != 1 || snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Errorf("compiles=%d hits=%d misses=%d, want 1/1/1",
			snap.Compiles, snap.CacheHits, snap.CacheMisses)
	}
}

// TestSingleflightCoalescing: N concurrent identical requests run
// exactly one compile; every response carries the same bytes.
func TestSingleflightCoalescing(t *testing.T) {
	const n = 6
	s, ts := newTestServer(t, Config{MaxInFlight: 4})
	gate := make(chan struct{})
	s.SetCompileFunc(func(ctx context.Context, req himap.Request) (*himap.Result, error) {
		<-gate
		return nil, diag.Failf(diag.ErrRouteCongested, "stubbed congestion")
	})

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postCompile(t, ts.URL, kernelRequest("GEMM", 4, 4))
			statuses[i], bodies[i] = resp.StatusCode, b
		}(i)
	}
	// Release the leader only once every follower is parked on its call,
	// so the test proves coalescing rather than cache hits.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s.Metrics().Snapshot().Coalesced == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", s.Metrics().Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusUnprocessableEntity {
			t.Errorf("request %d: status %d, want 422", i, statuses[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d: body differs from request 0", i)
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.Compiles != 1 {
		t.Errorf("compiles = %d, want exactly 1", snap.Compiles)
	}
	if snap.Coalesced != n-1 {
		t.Errorf("coalesced = %d, want %d", snap.Coalesced, n-1)
	}
}

// TestFollowerOutlivesLeaderDeadline: timeout_ms is not part of the
// cache key, so a 1 ms request and a default-deadline request share a
// flight. The leader's 504 is its own; the follower, whose context is
// still alive, must compile (as the new leader) and answer 200.
func TestFollowerOutlivesLeaderDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	s.SetCompileFunc(func(ctx context.Context, req himap.Request) (*himap.Result, error) {
		if calls.Add(1) > 1 {
			return himap.CompileRequest(ctx, req)
		}
		close(started)
		<-release // keep the flight open until the follower is parked on it
		<-ctx.Done()
		return nil, diag.Fail(diag.ErrCanceled, ctx.Err())
	})

	leader := make(chan int, 1)
	go func() {
		resp, _ := postCompile(t, ts.URL, `{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{"timeout_ms":1}}`)
		leader <- resp.StatusCode
	}()
	select {
	case <-started:
	case st := <-leader:
		t.Skipf("the 1 ms leader expired before admission (status %d): no flight to follow", st)
	}
	follower := make(chan *http.Response, 1)
	go func() {
		resp, _ := postCompile(t, ts.URL, kernelRequest("MVT", 4, 4))
		follower <- resp
	}()
	for deadline := time.Now().Add(10 * time.Second); s.Metrics().Snapshot().Coalesced != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower never coalesced: %+v", s.Metrics().Snapshot())
		}
	}
	close(release)

	if st := <-leader; st != http.StatusGatewayTimeout {
		t.Errorf("leader status %d, want 504", st)
	}
	resp := <-follower
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Himap-Cache") != "miss" {
		t.Errorf("follower answered %d (cache %q), want 200 miss — it inherited the leader's deadline",
			resp.StatusCode, resp.Header.Get("X-Himap-Cache"))
	}
	if snap := s.Metrics().Snapshot(); snap.Compiles != 2 || snap.Coalesced != 1 {
		t.Errorf("compiles=%d coalesced=%d, want 2/1", snap.Compiles, snap.Coalesced)
	}
}

// TestOverloadTypedRejection: with one worker and no queue, a second
// distinct request is rejected with the typed 429 body.
func TestOverloadTypedRejection(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1})
	started := make(chan struct{})
	gate := make(chan struct{})
	s.SetCompileFunc(func(ctx context.Context, req himap.Request) (*himap.Result, error) {
		close(started)
		<-gate
		return nil, diag.Failf(diag.ErrRouteCongested, "stubbed")
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		postCompile(t, ts.URL, kernelRequest("GEMM", 4, 4))
	}()
	<-started

	resp, body := postCompile(t, ts.URL, kernelRequest("MVT", 4, 4))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("429 body not JSON: %v", err)
	}
	if er.SchemaVersion != SchemaVersion || er.Error.Code != "overloaded" {
		t.Errorf("429 body = %+v, want schema %d code overloaded", er, SchemaVersion)
	}
	close(gate)
	<-done
	if got := s.Metrics().Snapshot().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestDeadlineExpiry: a request-level timeout cancels the compile and
// answers 504 with the deadline code.
func TestDeadlineExpiry(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.SetCompileFunc(func(ctx context.Context, req himap.Request) (*himap.Result, error) {
		<-ctx.Done()
		return nil, diag.Fail(diag.ErrCanceled, ctx.Err())
	})
	body := `{"kernel":"GEMM","fabric":{"rows":4,"cols":4},"options":{"timeout_ms":30}}`
	resp, b := postCompile(t, ts.URL, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, b)
	}
	var er ErrorResponse
	if err := json.Unmarshal(b, &er); err != nil || er.Error.Code != "deadline" {
		t.Errorf("504 body = %s (err %v), want code deadline", b, err)
	}
}

type rejectCase struct {
	name   string
	body   string
	status int
	code   string
}

// strictDecodeCases is the /v1/compile rejection table (also the seed
// corpus of FuzzDecodeRequest).
var strictDecodeCases = []rejectCase{
	{"unknown field", `{"kernel":"GEMM","fabric":{"rows":4,"cols":4},"optionz":{}}`, 400, "bad_request"},
	{"trailing data", kernelRequest("GEMM", 4, 4) + `{"again":true}`, 400, "bad_request"},
	{"no kernel", `{"fabric":{"rows":4,"cols":4},"options":{}}`, 400, "bad_request"},
	{"kernel and spec", `{"kernel":"MVT","spec":{"name":"x","dim":1,"tensors":[],"body":[]},"fabric":{"rows":4,"cols":4}}`, 400, "bad_request"},
	{"unknown kernel", kernelRequest("NOPE", 4, 4), 404, "unknown_kernel"},
	{"fabric too small", kernelRequest("GEMM", 1, 4), 400, "bad_request"},
	{"fabric too large", kernelRequest("GEMM", 4, 4096), 400, "bad_request"},
	{"rows past the bound", kernelRequest("GEMM", 65, 4), 400, "bad_request"},
	{"cols past the bound", kernelRequest("GEMM", 4, 65), 400, "bad_request"},
	{"inner_block past the bound", `{"kernel":"GEMM","fabric":{"rows":4,"cols":4},"options":{"inner_block":65}}`, 400, "bad_request"},
	{"block extent past the bound", `{"kernel":"GEMM","fabric":{"rows":4,"cols":4},"options":{"mapper":"conventional","block":[2,65,2]}}`, 400, "bad_request"},
	{"bad fabric enumeration", `{"kernel":"GEMM","fabric":{"rows":4,"cols":4,"bandwidth":"quad"}}`, 400, "bad_request"},
	{"bad mapper", `{"kernel":"GEMM","fabric":{"rows":4,"cols":4},"options":{"mapper":"magic"}}`, 400, "bad_request"},
	{"block on himap", `{"kernel":"GEMM","fabric":{"rows":4,"cols":4},"options":{"block":[4,4,4]}}`, 400, "bad_request"},
	{"future schema", `{"schema_version":3,"kernel":"GEMM","fabric":{"rows":4,"cols":4}}`, 400, "bad_request"},
}

// TestStrictDecodeAndValidation: malformed requests get typed 4xx
// bodies, never a compile, and so does a path the server does not route.
func TestStrictDecodeAndValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Leading whitespace is legal JSON, so only the size bound can refuse
	// this otherwise valid request.
	cases := append(slices.Clip(strictDecodeCases), rejectCase{"oversized body",
		strings.Repeat(" ", maxRequestBytes) + kernelRequest("GEMM", 4, 4), 400, "bad_request"})
	for _, tc := range cases {
		resp, b := postCompile(t, ts.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, b)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(b, &er); err != nil {
			t.Errorf("%s: body not JSON: %v", tc.name, err)
			continue
		}
		if er.SchemaVersion != SchemaVersion || er.Error.Code != tc.code {
			t.Errorf("%s: body %+v, want schema %d code %s", tc.name, er, SchemaVersion, tc.code)
		}
	}

	// The design-space sweep is cmd/experiments -explore; the server has no
	// route for it.
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(`{"kernel":"MVT","rows":4,"cols":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || s.Metrics().Snapshot().Compiles != 0 {
		t.Errorf("retired sweep route answered %d after %d compiles, want 404 and none", resp.StatusCode, s.Metrics().Snapshot().Compiles)
	}
}

// TestWireBoundsAtTheirEdges: each wire bound admits its own value — the
// 65s of strictDecodeCases answer 400 — and a timeout past the ceiling
// resolves to the ceiling.
func TestWireBoundsAtTheirEdges(t *testing.T) {
	for _, body := range []string{
		kernelRequest("GEMM", 64, 4),
		kernelRequest("GEMM", 4, 64),
		`{"kernel":"GEMM","fabric":{"rows":4,"cols":4},"options":{"inner_block":64}}`,
		`{"kernel":"GEMM","fabric":{"rows":4,"cols":4},"options":{"mapper":"conventional","block":[2,64,2]}}`,
	} {
		var w CompileRequestWire
		if err := json.Unmarshal([]byte(body), &w); err != nil {
			t.Fatal(err)
		}
		if _, err := BuildRequest(&w, Config{}); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
	s := MustNew(Config{})
	for ms, want := range map[int]time.Duration{
		600_000:   10 * time.Minute,
		600_001:   10 * time.Minute,
		3_600_000: 10 * time.Minute,
		599_999:   599_999 * time.Millisecond,
	} {
		if got := s.timeout(ms); got != want {
			t.Errorf("timeout_ms %d resolves to %v, want %v", ms, got, want)
		}
	}
}

// inlineSpecRequest is a compile request carrying an inline kernel
// specification (also a FuzzDecodeRequest seed).
const inlineSpecRequest = `{
		"spec": {
			"name": "WIRE1D", "dim": 1, "min_block": 2,
			"tensors": [
				{"name": "A", "dims": [{"coef": [1]}]},
				{"name": "B", "dims": [{"coef": [1]}]},
				{"name": "C", "out": true, "dims": [{"coef": [1]}]}
			],
			"body": [{
				"op": "mul",
				"a": [{"src": {"kind": "mem", "tensor": "A", "map": [{"coef": [1]}]}}],
				"b": [{"src": {"kind": "mem", "tensor": "B", "map": [{"coef": [1]}]}}],
				"stores": [{"tensor": "C", "map": [{"coef": [1]}]}]
			}]
		},
		"fabric": {"rows": 4, "cols": 4},
		"options": {"mapper": "conventional", "block": [4], "seed": 1}
	}`

// TestInlineSpecConventional compiles an inline wire-specified kernel
// through the conventional mapper.
func TestInlineSpecConventional(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postCompile(t, ts.URL, inlineSpecRequest)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var cr CompileResponse
	if err := json.Unmarshal(b, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Mapper != "conventional" || cr.Kernel != "WIRE1D" || cr.II < 1 {
		t.Errorf("response %+v, want conventional WIRE1D with II >= 1", cr)
	}
}

// TestKernelsHealthzMetrics covers the observability endpoints.
func TestKernelsHealthzMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postCompile(t, ts.URL, kernelRequest("MVT", 4, 4))

	resp, err := http.Get(ts.URL + "/v1/kernels")
	if err != nil {
		t.Fatal(err)
	}
	var kr KernelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&kr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if kr.SchemaVersion != SchemaVersion || len(kr.Kernels) < 8 {
		t.Errorf("kernels response: schema %d, %d kernels", kr.SchemaVersion, len(kr.Kernels))
	}
	found := false
	for _, k := range kr.Kernels {
		if k.Name == "GEMM" {
			found = true
		}
	}
	if !found {
		t.Error("GEMM missing from /v1/kernels")
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(hb)) != "ok" {
		t.Errorf("healthz: %d %q", resp.StatusCode, hb)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(mb)
	for _, want := range []string{"himapd_requests_total 1", "himapd_compiles_total 1", "himapd_cache_misses_total 1", "himapd_stage_count"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.SchemaVersion != SchemaVersion || snap.Requests != 1 || snap.Compiles != 1 {
		t.Errorf("metrics JSON %+v, want 1 request / 1 compile", snap)
	}
	if len(snap.Stages) == 0 {
		t.Error("metrics JSON has no stage histograms")
	}
}

// TestCacheEviction: a tiny byte budget evicts the least recently used
// entry; both requests still serve correct bytes.
func TestCacheEviction(t *testing.T) {
	c := newCache(100)
	a := bytes.Repeat([]byte("a"), 60)
	b := bytes.Repeat([]byte("b"), 60)
	c.put("a", a)
	c.put("b", b) // evicts a (60+60 > 100)
	if _, ok := c.get("a"); ok {
		t.Error("entry a should have been evicted")
	}
	if got, ok := c.get("b"); !ok || !bytes.Equal(got, b) {
		t.Error("entry b missing or corrupt")
	}
	if n, size := c.stats(); n != 1 || size != 60 {
		t.Errorf("stats = %d entries / %d bytes, want 1/60", n, size)
	}
	c.put("huge", bytes.Repeat([]byte("h"), 200)) // over budget: not cached
	if _, ok := c.get("huge"); ok {
		t.Error("oversized entry should not be cached")
	}
}

// TestCacheKeyIgnoresTimeout: the timeout cannot change the mapping, so
// it must not split the cache.
func TestCacheKeyIgnoresTimeout(t *testing.T) {
	var a, b CompileRequestWire
	base := kernelRequest("GEMM", 4, 4)
	if err := json.Unmarshal([]byte(base), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(base), &b); err != nil {
		t.Fatal(err)
	}
	b.Options.TimeoutMS = 5000
	if CacheKey(&a) != CacheKey(&b) {
		t.Error("timeout_ms changed the cache key")
	}
	b.Options.TimeoutMS = 0
	b.SchemaVersion = SchemaVersion
	if CacheKey(&a) != CacheKey(&b) {
		t.Error("explicit schema_version changed the cache key")
	}
	b.SchemaVersion = 0
	b.Fabric.Rows = 8
	if CacheKey(&a) == CacheKey(&b) {
		t.Error("different fabrics share a cache key")
	}
}

// TestExactMapperWire drives the exact backend end to end over HTTP:
// "mapper": "exact" compiles, the response stamps the backend identity,
// and the optimality block carries the proved-minimal certificate.
func TestExactMapperWire(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{"mapper":"exact","block":[2,2]}}`
	resp, b := postCompile(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var cr CompileResponse
	if err := json.Unmarshal(b, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Mapper != string(himap.MapperExact) {
		t.Errorf("mapper %q, want %q", cr.Mapper, himap.MapperExact)
	}
	if cr.Optimality == nil {
		t.Fatal("optimality block missing from exact response")
	}
	if !cr.Optimality.ProvedMinimal || cr.Optimality.Certificate != string(himap.CertResMII) {
		t.Errorf("optimality %+v, want proved minimal with resmii certificate", cr.Optimality)
	}
	if cr.II != cr.Optimality.IILowerBound {
		t.Errorf("proved-minimal ii %d != lower bound %d", cr.II, cr.Optimality.IILowerBound)
	}

	// The himap and conventional paths must not grow an optimality block.
	resp, b = postCompile(t, ts.URL, kernelRequest("MVT", 4, 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("himap status %d: %s", resp.StatusCode, b)
	}
	cr = CompileResponse{}
	if err := json.Unmarshal(b, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Optimality != nil {
		t.Errorf("himap response grew an optimality block: %+v", cr.Optimality)
	}
}

// TestExactCellGuard pins the -max-exact-cells admission wall and the
// conventional mapper's 400-node wall: an instance past either is refused
// without searching, as a 422 with the too_large error code and class.
func TestExactCellGuard(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxExactCells: 4})
	for _, c := range []struct{ body, wall string }{
		{`{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{"mapper":"exact","block":[2,2]}}`, "4-node wall"},
		// GEMM 8x8x8 unrolls to 2,048 nodes, past the conventional mapper's 400.
		{`{"kernel":"GEMM","fabric":{"rows":4,"cols":4},"options":{"mapper":"conventional","block":[8,8,8]}}`, "400-node wall"},
	} {
		resp, b := postCompile(t, ts.URL, c.body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422: %s", resp.StatusCode, b)
		}
		var er ErrorResponse
		if err := json.Unmarshal(b, &er); err != nil {
			t.Fatal(err)
		}
		if e := er.Error; e.Code != "infeasible" || e.ErrorCode != "too_large" || e.Class != diag.ErrTooLarge.Error() ||
			!strings.Contains(e.Message, c.wall) {
			t.Errorf("error %+v, want infeasible, too_large and its class citing the %s", e, c.wall)
		}
	}
}

// TestExactMapperRejectsForeignOptions: seed and inner_block belong to
// the other backends and are rejected with the usual 400 discipline.
func TestExactMapperRejectsForeignOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{"mapper":"exact","seed":7}}`,
		`{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{"mapper":"exact","inner_block":2}}`,
	} {
		resp, b := postCompile(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400: %s", resp.StatusCode, b)
		}
	}
}
