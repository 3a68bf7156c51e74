// Command himapd_smoke is the end-to-end health check of the compile
// service, run by scripts/check.sh: it builds cmd/himapd, starts it on
// an ephemeral port, compiles MVT over HTTP, byte-compares the served
// body against a direct in-process himap.CompileRequest of the same
// request and its "config" member against the compacted himap.SaveConfig
// file, verifies that every answer carries its Content-Length, the cache
// hit, the rejection of a retired schema_version pin and the metrics
// counters, and then shuts the daemon down gracefully with SIGTERM.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"himap"
	"himap/internal/serve"
)

// The smoke request, and the same request pinned to the retired wire
// version 1, which the server must refuse rather than misinterpret.
const (
	compileBody   = `{"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}}`
	compileBodyV1 = `{"schema_version":1,"kernel":"MVT","fabric":{"rows":4,"cols":4},"options":{}}`
	// An inline kernel specification: O[i][j] = A[i][j] + O[i][j-2], a
	// dependence two iterations long that the mapping forwards through a
	// relay PE.
	inlineBody = `{"spec":{"name":"HOP2","dim":2,"min_block":4,` +
		`"tensors":[{"name":"A","dims":[{"coef":[1,0]},{"coef":[0,1]}]},{"name":"O","out":true,"dims":[{"coef":[1,0]},{"coef":[0,1]}]}],` +
		`"body":[{"name":"acc","op":"add","a":[{"src":{"kind":"mem","tensor":"A","map":[{"coef":[1,0]},{"coef":[0,1]}]}}],` +
		`"b":[{"when":[{"kind":"index_lt","dim":1,"val":2}],"src":{"kind":"const"}},{"src":{"kind":"dep","dist":[0,2]}}],` +
		`"stores":[{"tensor":"O","map":[{"coef":[1,0]},{"coef":[0,1]}]}]}]},` +
		`"fabric":{"rows":4,"cols":4},"options":{}}`
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "himapd_smoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("himapd_smoke: ok")
}

func run() error {
	dir, err := os.MkdirTemp("", "himapd-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bin := filepath.Join(dir, "himapd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/himapd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build himapd: %w", err)
	}

	daemon := exec.Command(bin, "-addr", "127.0.0.1:0")
	daemon.Stderr = os.Stderr
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		return err
	}
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("start himapd: %w", err)
	}
	defer daemon.Process.Kill()

	// Collect stdout; the first line announces the bound address and the
	// last line confirms the graceful shutdown.
	var mu sync.Mutex
	var lines []string
	listening := make(chan string, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			lines = append(lines, line)
			mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "himapd: listening on "); ok {
				listening <- strings.TrimSpace(rest)
			}
		}
	}()

	var base string
	select {
	case base = <-listening:
	case <-time.After(15 * time.Second):
		return fmt.Errorf("himapd never announced its address")
	}

	if err := waitHealthy(base, 10*time.Second); err != nil {
		return err
	}

	// Serve MVT and byte-compare with the direct API.
	status, hdr, served, err := post(base+"/v1/compile", compileBody)
	if err != nil {
		return err
	}
	if status != http.StatusOK || hdr != "miss" {
		return fmt.Errorf("first compile: status %d cache %q, want 200 miss: %s", status, hdr, served)
	}
	direct, saved, err := directBytes(compileBody)
	if err != nil {
		return err
	}
	if !bytes.Equal(served, direct) {
		return fmt.Errorf("served body (%d bytes) differs from direct CompileRequest (%d bytes)",
			len(served), len(direct))
	}
	// The configuration file and the served "config" member are one
	// rendering: the file, compacted, is the member.
	var resp serve.CompileResponse
	if err := json.Unmarshal(served, &resp); err != nil {
		return fmt.Errorf("served body: %w", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, saved); err != nil {
		return fmt.Errorf("saved config: %w", err)
	}
	if !bytes.Equal(compact.Bytes(), resp.Config) {
		return fmt.Errorf("saved config compacts to %d bytes, the served config member has %d and differs",
			compact.Len(), len(resp.Config))
	}

	// The identical request must come back from the cache, byte-identical.
	status, hdr, cached, err := post(base+"/v1/compile", compileBody)
	if err != nil {
		return err
	}
	if status != http.StatusOK || hdr != "hit" {
		return fmt.Errorf("second compile: status %d cache %q, want 200 hit", status, hdr)
	}
	if !bytes.Equal(cached, served) {
		return fmt.Errorf("cached body differs from compiled body")
	}

	// The server speaks one wire version; a version-1 pin is a typed 400.
	status, _, rejected, err := post(base+"/v1/compile", compileBodyV1)
	if err != nil {
		return err
	}
	if status != http.StatusBadRequest || !bytes.Contains(rejected, []byte(`"code":"bad_request"`)) {
		return fmt.Errorf("schema_version 1: status %d body %s, want typed 400", status, rejected)
	}

	metrics, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{"himapd_compiles_total 1", "himapd_cache_hits_total 1", "himapd_requests_total 3"} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// The registry lists every kernel the direct API resolves by name,
	// each with its compute operations.
	listed, err := get(base + "/v1/kernels")
	if err != nil {
		return err
	}
	var reg serve.KernelsResponse
	if err := json.Unmarshal([]byte(listed), &reg); err != nil {
		return fmt.Errorf("kernel registry: %w", err)
	}
	if len(reg.Kernels) == 0 {
		return fmt.Errorf("kernel registry is empty")
	}
	for _, k := range reg.Kernels {
		if _, err := himap.KernelByName(k.Name); err != nil || k.Ops == 0 {
			return fmt.Errorf("registry entry %+v: %v", k, err)
		}
	}

	// An inline specification is served like a registry kernel: the
	// body is the direct compile's.
	status, _, inline, err := post(base+"/v1/compile", inlineBody)
	if err != nil {
		return err
	}
	if direct, _, err := directBytes(inlineBody); err != nil || status != http.StatusOK || !bytes.Equal(inline, direct) {
		return fmt.Errorf("inline spec: status %d, direct compile %v; served %s", status, err, inline)
	}

	// Graceful shutdown: SIGTERM, clean exit, confirmation line.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal: %w", err)
	}
	// Drain stdout fully before Wait (Wait closes the pipe), so the
	// shutdown confirmation line cannot be lost to a read race.
	select {
	case <-scanned:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("himapd did not exit within 30s of SIGTERM")
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("himapd exited uncleanly after SIGTERM: %w", err)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("himapd did not exit within 30s of SIGTERM")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if l == "himapd: shutdown complete" {
			return nil
		}
	}
	return fmt.Errorf("shutdown confirmation missing from output: %q", lines)
}

// directBytes compiles the smoke request in-process through the same
// wire conversion the server uses and renders the canonical response
// bytes, and the configuration file himap.SaveConfig writes for it.
func directBytes(body string) (response, saved []byte, err error) {
	wire, err := serve.DecodeRequest(strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req, err := serve.BuildRequest(wire, serve.Config{})
	if err != nil {
		return nil, nil, err
	}
	res, err := himap.CompileRequest(context.Background(), req)
	if err != nil {
		return nil, nil, err
	}
	var file bytes.Buffer
	if err := himap.SaveConfig(res.Config, &file); err != nil {
		return nil, nil, err
	}
	response, err = serve.EncodeResponse(res)
	return response, file.Bytes(), err
}

func waitHealthy(base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz never turned healthy: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func post(url, body string) (int, string, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	// Every /v1/compile answer, cached or compiled or rejected, is a
	// complete body sent with its length.
	if resp.ContentLength != int64(len(b)) {
		return 0, "", nil, fmt.Errorf("POST %s: Content-Length %d, body %d bytes", url, resp.ContentLength, len(b))
	}
	return resp.StatusCode, resp.Header.Get("X-Himap-Cache"), b, nil
}

func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
