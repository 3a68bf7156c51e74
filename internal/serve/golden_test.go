package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"himap"
	"himap/internal/diag"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/serve/testdata/golden from the current server")

type compileFunc = func(context.Context, himap.Request) (*himap.Result, error)

func stubCongested(ctx context.Context, req himap.Request) (*himap.Result, error) {
	return nil, diag.Failf(diag.ErrRouteCongested, "stubbed congestion")
}

func stubDeadline(ctx context.Context, req himap.Request) (*himap.Result, error) {
	<-ctx.Done()
	return nil, diag.Fail(diag.ErrCanceled, ctx.Err())
}

// goldenCases are the wire bytes deployed clients, disk stores and
// shard rings depend on. Each case posts body to path on a fresh
// server and compares the response with testdata/golden/<name>. A
// refactor must leave the files byte-unchanged; run with -update only
// for a deliberate contract change that bumps SchemaVersion.
var goldenCases = []struct {
	name   string
	path   string
	body   string
	stub   compileFunc // nil = real compile
	status int
}{
	{"compile_himap.json", "/v1/compile", `{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}}`, nil, 200},
	{"compile_exact.json", "/v1/compile", `{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{"mapper":"exact","block":[2,2]}}`, nil, 200},
	{"error_400_bad_request.json", "/v1/compile", `{"fabric":{"rows":4,"cols":4},"options":{}}`, nil, 400},
	{"error_404_unknown_kernel.json", "/v1/compile", `{"kernel":"NOPE","fabric":{"rows":4,"cols":4},"options":{}}`, nil, 404},
	{"error_422_infeasible.json", "/v1/compile", `{"kernel":"GEMM","fabric":{"rows":4,"cols":4},"options":{}}`, stubCongested, 422},
	{"error_504_deadline.json", "/v1/compile", `{"kernel":"GEMM","fabric":{"rows":4,"cols":4},"options":{"timeout_ms":30}}`, stubDeadline, 504},
	{"batch.json", "/v1/compile-batch", `{"items":[{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}},{"kernel":"NOPE","fabric":{"rows":4,"cols":4},"options":{}}],"options":{}}`, nil, 200},
	{"stream_result.sse", "/v1/compile", `{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}}`, nil, 200},
	{"explore.json", "/v1/explore", `{"kernel":"MVT","fabrics":[{"rows":4,"cols":4},{"rows":4,"cols":4,"topology":"torus"},{"rows":4,"cols":4,"mem_pes":"none"}],"options":{}}`, nil, 200},
}

// stageMS matches the one wall-clock field of an explore entry.
var stageMS = regexp.MustCompile(`,"stage_ms":\{[^}]*\}`)

func TestGoldenWireBytes(t *testing.T) {
	for _, tc := range goldenCases {
		s, ts := newTestServer(t, Config{})
		if tc.stub != nil {
			s.SetCompileFunc(tc.stub)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if strings.HasSuffix(tc.name, ".sse") {
			req.Header.Set("Accept", "text/event-stream")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: read body: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, got)
			continue
		}
		switch tc.name {
		case "stream_result.sse":
			// Stage events carry wall clock; the terminal frame is the contract.
			got = got[bytes.LastIndex(got, []byte("event: ")):]
		case "explore.json":
			got = stageMS.ReplaceAll(got, nil)
		}
		compareGolden(t, tc.name, got)
	}
}

// TestGoldenCacheKey pins the content address itself: disk-store file
// names and shard ownership are functions of these hex digits. An
// omitted schema_version and an explicit pin of the current one share
// the key.
func TestGoldenCacheKey(t *testing.T) {
	var got bytes.Buffer
	for _, body := range []string{
		`{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{"timeout_ms":500}}`,
		`{"schema_version":2,"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}}`,
	} {
		var wire CompileRequestWire
		if err := json.Unmarshal([]byte(body), &wire); err != nil {
			t.Fatal(err)
		}
		got.WriteString(CacheKey(&wire) + "\n")
	}
	compareGolden(t, "cachekey.txt", got.Bytes())
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (capture with go test ./internal/serve -run Golden -update)", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: wire bytes changed (%d bytes, golden %d)\n got: %.300s\nwant: %.300s", name, len(got), len(want), got, want)
	}
}
