package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"himap"
	"himap/internal/diag"
)

// --- wire schema version ----------------------------------------------

// TestSchemaVersionWindow: the server speaks exactly SchemaVersion. An
// omitted schema_version or a pin of that value is served; every other
// pin — the retired version 1 included — answers the typed 400, on all
// three decoding endpoints.
func TestSchemaVersionWindow(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name       string
		pin        int // 0 = omitted
		wantStatus int
	}{
		{"omitted means current", 0, 200},
		{"v1 rejected, typed 400", 1, 400},
		{"current pin accepted", 2, 200},
		{"future rejected", 3, 400},
		{"negative rejected", -1, 400},
	}
	for _, tc := range cases {
		body := `{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}}`
		if tc.pin != 0 {
			body = fmt.Sprintf(`{"schema_version":%d,"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}}`, tc.pin)
		}
		resp, b := postCompile(t, ts.URL, body)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.wantStatus, b)
			continue
		}
		var probe struct {
			SchemaVersion int `json:"schema_version"`
		}
		if err := json.Unmarshal(b, &probe); err != nil {
			t.Errorf("%s: body not JSON: %v", tc.name, err)
			continue
		}
		if probe.SchemaVersion != SchemaVersion {
			t.Errorf("%s: body schema_version %d, want %d", tc.name, probe.SchemaVersion, SchemaVersion)
		}
	}

	for path, body := range map[string]string{
		"/v1/compile":       `{"schema_version":1,"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}}`,
		"/v1/compile-batch": `{"schema_version":1,"items":[{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}}],"options":{}}`,
		"/v1/explore":       `{"schema_version":1,"kernel":"MVT","rows":4,"cols":4,"options":{}}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || er.SchemaVersion != SchemaVersion || er.Error.ErrorCode != CodeBadRequest {
			t.Errorf("%s: schema_version 1 answered %d %+v (decode err %v), want typed 400 %s", path, resp.StatusCode, er, err, CodeBadRequest)
		}
	}
}

// TestWireErrorCodeTotal asserts the diag-sentinel → error_code mapping
// is total and injective, so a new failure class cannot ship unmapped.
func TestWireErrorCodeTotal(t *testing.T) {
	seen := map[string]string{}
	for _, class := range diag.Classes() {
		code, ok := diagErrorCodes[class]
		if !ok || code == "" {
			t.Errorf("diag class %q has no wire error_code — add it to diagErrorCodes", class)
			continue
		}
		if prev, dup := seen[code]; dup {
			t.Errorf("error_code %q maps from both %q and %q", code, prev, class)
		}
		seen[code] = class.Error()
		// The rendering path must agree with the table, including for
		// wrapped StageErrors.
		if got := WireErrorCode(diag.Failf(class, "probe")); got != code {
			t.Errorf("WireErrorCode(StageError{%q}) = %q, want %q", class, got, code)
		}
	}
	if len(seen) != len(diagErrorCodes) {
		t.Errorf("diagErrorCodes has %d entries, diag.Classes() %d — the table carries unknown sentinels", len(diagErrorCodes), len(seen))
	}
	// Serve-level sentinels keep their own codes.
	for err, want := range map[error]string{
		ErrOverloaded:            CodeOverloaded,
		ErrUnknownKernel:         CodeUnknownKernel,
		ErrBadRequest:            CodeBadRequest,
		context.DeadlineExceeded: "canceled",
		io.ErrUnexpectedEOF:      CodeInternal,
	} {
		if got := WireErrorCode(err); got != want {
			t.Errorf("WireErrorCode(%v) = %q, want %q", err, got, want)
		}
	}
}

// --- disk store under the LRU ----------------------------------------

// TestStoreRestartReplay is the persistence tentpole's contract test: a
// server restarted over the same store directory replays byte-identical
// responses without recompiling, and a corrupt entry is recompiled, not
// served.
func TestStoreRestartReplay(t *testing.T) {
	dir := t.TempDir()
	req := kernelRequest("MVT", 4, 4)

	s1, ts1 := newTestServer(t, Config{StoreDir: dir})
	resp, body1 := postCompile(t, ts1.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold compile: %d %s", resp.StatusCode, body1)
	}
	if n := s1.Metrics().Snapshot().Compiles; n != 1 {
		t.Fatalf("cold compiles = %d, want 1", n)
	}
	ts1.Close()

	// "Restart": a fresh server over the same directory. The memory LRU
	// is empty, so the hit must come from the disk store.
	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	resp, body2 := postCompile(t, ts2.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay compile: %d %s", resp.StatusCode, body2)
	}
	if got := resp.Header.Get("X-Himap-Cache"); got != "store" {
		t.Errorf("replay cache header %q, want store", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("restarted server served different bytes for the same request")
	}
	if n := s2.Metrics().Snapshot().Compiles; n != 0 {
		t.Errorf("replay ran %d compiles, want 0", n)
	}
	// A store hit promotes into memory: the next request is a plain hit.
	resp, _ = postCompile(t, ts2.URL, req)
	if got := resp.Header.Get("X-Himap-Cache"); got != "hit" {
		t.Errorf("post-promotion cache header %q, want hit", got)
	}

	// Corrupt the stored entry and restart again: the server must detect,
	// evict, and recompile — same bytes, one real compile.
	var wire CompileRequestWire
	if err := json.Unmarshal([]byte(req), &wire); err != nil {
		t.Fatal(err)
	}
	key := CacheKey(&wire)
	if err := s2.Store().CorruptForTest(key); err != nil {
		t.Fatal(err)
	}
	ts2.Close()

	s3, ts3 := newTestServer(t, Config{StoreDir: dir})
	resp, body3 := postCompile(t, ts3.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-corruption compile: %d %s", resp.StatusCode, body3)
	}
	if got := resp.Header.Get("X-Himap-Cache"); got != "miss" {
		t.Errorf("post-corruption cache header %q, want miss (recompile)", got)
	}
	if !bytes.Equal(body1, body3) {
		t.Error("recompile after corruption produced different bytes")
	}
	if n := s3.Metrics().Snapshot().Compiles; n != 1 {
		t.Errorf("post-corruption compiles = %d, want 1 (recompile)", n)
	}
	if st := s3.Store().Stats(); st.Corrupt != 1 {
		t.Errorf("store corrupt counter = %d, want 1", st.Corrupt)
	}
}

// --- consistent-hash sharding ----------------------------------------

// twoReplicaCluster starts two servers that know each other as peers.
// Compile funcs are stubbed to tag which replica executed, so tests can
// observe routing without parsing mappings.
func twoReplicaCluster(t *testing.T) (a, b *Server, tsA, tsB *httptest.Server) {
	t.Helper()
	tsA = httptest.NewUnstartedServer(nil)
	tsB = httptest.NewUnstartedServer(nil)
	urlA := "http://" + tsA.Listener.Addr().String()
	urlB := "http://" + tsB.Listener.Addr().String()
	peers := []string{urlA, urlB}
	var err error
	if a, err = New(Config{Peers: peers, Self: urlA}); err != nil {
		t.Fatal(err)
	}
	if b, err = New(Config{Peers: peers, Self: urlB}); err != nil {
		t.Fatal(err)
	}
	tag := func(name string) func(context.Context, himap.Request) (*himap.Result, error) {
		return func(ctx context.Context, req himap.Request) (*himap.Result, error) {
			return nil, diag.Failf(diag.ErrRouteCongested, "executed by %s", name)
		}
	}
	a.SetCompileFunc(tag("replica-a"))
	b.SetCompileFunc(tag("replica-b"))
	tsA.Config.Handler = a.Handler()
	tsB.Config.Handler = b.Handler()
	tsA.Start()
	tsB.Start()
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	return a, b, tsA, tsB
}

// keyOwnedBy finds a compile request whose cache key the given peer
// owns, by scanning fabric sizes. Both replicas compute identical rings,
// so ownership is a pure function of the request.
func keyOwnedBy(t *testing.T, s *Server, owner string) string {
	t.Helper()
	for side := 4; side <= 16; side++ {
		req := kernelRequest("GEMM", side, side)
		var wire CompileRequestWire
		if err := json.Unmarshal([]byte(req), &wire); err != nil {
			t.Fatal(err)
		}
		if s.Owner(CacheKey(&wire)) == owner {
			return req
		}
	}
	t.Fatalf("no probe request hashed to %s", owner)
	return ""
}

// TestShardForwarding: a request landing on the non-owner replica is
// relayed to its owner exactly once, and the response names the peer
// that served it.
func TestShardForwarding(t *testing.T) {
	a, b, tsA, tsB := twoReplicaCluster(t)
	req := keyOwnedBy(t, a, "http://"+tsB.Listener.Addr().String())

	// Send to A; B owns the key, so A must relay.
	resp, body := postCompile(t, tsA.URL, req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (stub): %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "executed by replica-b") {
		t.Errorf("body %s, want execution on replica-b", body)
	}
	if got := resp.Header.Get(peerHeader); got != "http://"+tsB.Listener.Addr().String() {
		t.Errorf("peer header %q, want owner URL", got)
	}
	if n := a.Metrics().Snapshot().Forwarded; n != 1 {
		t.Errorf("A forwarded = %d, want 1", n)
	}
	if n := b.Metrics().Snapshot().ForwardedServed; n != 1 {
		t.Errorf("B forwarded_served = %d, want 1", n)
	}
	// Sending the same request straight to its owner B involves no relay.
	resp, body = postCompile(t, tsB.URL, req)
	if resp.Header.Get(peerHeader) != "" || !strings.Contains(string(body), "executed by replica-b") {
		t.Errorf("owner-direct request relayed: peer=%q body=%s", resp.Header.Get(peerHeader), body)
	}
	if n := a.Metrics().Snapshot().Forwarded; n != 1 {
		t.Errorf("A forwarded grew to %d on owner-direct traffic", n)
	}
}

// TestShardPeerDownDegrades: with the owner replica dead, the non-owner
// serves the request locally — degrade, never fail.
func TestShardPeerDownDegrades(t *testing.T) {
	a, _, tsA, tsB := twoReplicaCluster(t)
	req := keyOwnedBy(t, a, "http://"+tsB.Listener.Addr().String())
	tsB.Close() // owner gone

	resp, body := postCompile(t, tsA.URL, req)
	if resp.StatusCode >= 500 {
		t.Fatalf("request failed with %d when the peer died: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "executed by replica-a") {
		t.Errorf("body %s, want local fallback on replica-a", body)
	}
	snap := a.Metrics().Snapshot()
	if snap.ForwardFallbacks != 1 {
		t.Errorf("forward_fallbacks = %d, want 1", snap.ForwardFallbacks)
	}
	if snap.Forwarded != 0 {
		t.Errorf("forwarded = %d, want 0 (the relay never succeeded)", snap.Forwarded)
	}
}

// --- SSE stage-event streaming ---------------------------------------

type sseEvent struct {
	name string
	data string
}

func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	return events
}

func streamCompileRequest(t *testing.T, url, body string) (*http.Response, []sseEvent) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/compile", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp, readSSE(t, resp.Body)
}

// TestStreamStageEvents pins the stream grammar: stage events in tracer
// order, exactly one terminal result event, and a result datum equal to
// the non-streaming body.
func TestStreamStageEvents(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := kernelRequest("MVT", 4, 4)

	resp, events := streamCompileRequest(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q", ct)
	}
	if len(events) < 2 {
		t.Fatalf("stream carried %d events, want stages + result", len(events))
	}
	for i, ev := range events[:len(events)-1] {
		if ev.name != StreamEventStage {
			t.Errorf("event %d = %q, want %q", i, ev.name, StreamEventStage)
		}
		var sw StageEventWire
		if err := json.Unmarshal([]byte(ev.data), &sw); err != nil || sw.Stage == "" {
			t.Errorf("event %d datum %q: err=%v", i, ev.data, err)
		}
	}
	last := events[len(events)-1]
	if last.name != StreamEventResult {
		t.Fatalf("terminal event = %q, want %q", last.name, StreamEventResult)
	}

	// The result datum must equal the plain-HTTP body of the same request
	// (modulo the trailing newline). Use a fresh server so the cache
	// cannot mask a rendering difference.
	_, ts2 := newTestServer(t, Config{})
	httpResp, plain := postCompile(t, ts2.URL, req)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("plain compile: %d", httpResp.StatusCode)
	}
	if last.data != string(bytes.TrimRight(plain, "\n")) {
		t.Error("streamed result differs from the plain-HTTP body")
	}

	// Warm cache: the stream is a lone result event served from cache.
	resp, events = streamCompileRequest(t, ts.URL, req)
	if got := resp.Header.Get("X-Himap-Cache"); got != "hit" {
		t.Errorf("warm stream cache header %q, want hit", got)
	}
	if len(events) != 1 || events[0].name != StreamEventResult {
		t.Errorf("warm stream = %d events (first %q), want exactly one result", len(events), events[0].name)
	}
	if n := s.Metrics().Snapshot().Streams; n != 2 {
		t.Errorf("streams = %d, want 2", n)
	}

	// The exact mapper's spans reach the same consumers: its stream
	// carries stage events and /metrics records its search stage.
	_, events = streamCompileRequest(t, ts.URL,
		`{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{"mapper":"exact","block":[2,2]}}`)
	if len(events) < 2 || events[0].name != StreamEventStage || events[len(events)-1].name != StreamEventResult {
		t.Errorf("exact stream = %d events (first %q), want stage events then a result", len(events), events[0].name)
	}
	if _, ok := s.Metrics().Snapshot().Stages["search"]; !ok {
		t.Error("metrics carry no search stage after an exact compile")
	}
}

// TestStreamErrorEvent: a failing compile ends the stream with one
// error event carrying the same error body the plain request would get.
func TestStreamErrorEvent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.SetCompileFunc(func(ctx context.Context, req himap.Request) (*himap.Result, error) {
		return nil, diag.Failf(diag.ErrRouteCongested, "stubbed congestion")
	})
	resp, events := streamCompileRequest(t, ts.URL, kernelRequest("GEMM", 4, 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d (SSE commits 200 before the compile)", resp.StatusCode)
	}
	if len(events) == 0 || events[len(events)-1].name != StreamEventError {
		t.Fatalf("events %+v, want terminal error event", events)
	}
	var er ErrorResponse
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != "infeasible" || er.Error.ErrorCode != "route_congested" {
		t.Errorf("error event body %+v, want infeasible/route_congested", er.Error)
	}
}

// --- batch compile ----------------------------------------------------

// TestBatchCompile: items answer individually (success and typed error),
// the success result equals the standalone body, and duplicates hit the
// cache.
func TestBatchCompile(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	batch := `{"items":[
		{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}},
		{"kernel":"NOPE","fabric":{"rows":4,"cols":4},"options":{}},
		{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}}
	],"options":{}}`
	resp, err := http.Post(ts.URL+"/v1/compile-batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.SchemaVersion != SchemaVersion || len(br.Items) != 3 {
		t.Fatalf("batch = schema %d, %d items", br.SchemaVersion, len(br.Items))
	}
	if !br.Items[0].OK || br.Items[0].Status != 200 {
		t.Errorf("item 0 = %+v, want ok/200", br.Items[0])
	}
	if br.Items[1].OK || br.Items[1].Status != 404 || br.Items[1].Error == nil || br.Items[1].Error.Code != "unknown_kernel" {
		t.Errorf("item 1 = %+v, want 404 unknown_kernel", br.Items[1])
	}
	if !br.Items[2].OK {
		t.Errorf("item 2 = %+v, want ok (duplicate of item 0)", br.Items[2])
	}
	if !bytes.Equal(br.Items[0].Result, br.Items[2].Result) {
		t.Error("duplicate items returned different bytes")
	}

	// Item results are the standalone body minus the trailing newline
	// (decode both: json.Marshal re-compacts RawMessage, so raw bytes of
	// the envelope may differ from the standalone rendering).
	httpResp, standalone := postCompile(t, ts.URL, kernelRequest("MVT", 4, 4))
	if httpResp.StatusCode != http.StatusOK {
		t.Fatal("standalone compile failed")
	}
	if got := httpResp.Header.Get("X-Himap-Cache"); got != "hit" {
		t.Errorf("standalone after batch: cache header %q, want hit (batch populated the cache)", got)
	}
	var fromBatch, fromHTTP CompileResponse
	if err := json.Unmarshal(br.Items[0].Result, &fromBatch); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(standalone, &fromHTTP); err != nil {
		t.Fatal(err)
	}
	if fromBatch.II != fromHTTP.II || !bytes.Equal(fromBatch.Bitstream, fromHTTP.Bitstream) {
		t.Error("batch item result differs from the standalone response")
	}

	if got := resp.Header.Get("X-Himap-Batch-Cache"); !strings.Contains(got, "hits=1") {
		t.Errorf("batch cache header %q, want hits=1 (the duplicate)", got)
	}
	snap := s.Metrics().Snapshot()
	if snap.Batches != 1 || snap.BatchItems != 3 || snap.Compiles != 1 {
		t.Errorf("batches=%d items=%d compiles=%d, want 1/3/1", snap.Batches, snap.BatchItems, snap.Compiles)
	}
}

// TestBatchRejections: a malformed envelope answers 400, and items may
// not pin their own version.
func TestBatchRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchItems: 2})
	cases := []struct {
		name string
		body string
	}{
		{"empty items", `{"items":[],"options":{}}`},
		{"item pins version", `{"items":[{"schema_version":2,"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}}],"options":{}}`},
		{"too many items", `{"items":[
			{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}},
			{"kernel":"MVT","fabric":{"rows":5,"cols":5},"options":{}},
			{"kernel":"MVT","fabric":{"rows":6,"cols":6},"options":{}}
		],"options":{}}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/compile-batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, b)
		}
	}
}
