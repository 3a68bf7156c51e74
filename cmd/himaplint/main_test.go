package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module and chdirs into it (restored
// on cleanup) — run() loads the module containing the working
// directory, exactly like the real CLI.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	return dir
}

const cleanSrc = `package tmpmod

func Add(a, b int) int { return a + b }
`

const dirtySrc = `package tmpmod

import "context"

func Spin(ctx context.Context, n int) int {
	t := 0
	for i := 0; i < n; i++ {
		t += i
	}
	return t
}
`

func lint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCleanModuleExitsZero(t *testing.T) {
	writeModule(t, map[string]string{"tmpmod.go": cleanSrc})
	if code, out, errOut := lint(t, "./..."); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out, errOut)
	}
}

func TestFindingsExitOne(t *testing.T) {
	writeModule(t, map[string]string{"tmpmod.go": dirtySrc})
	code, out, _ := lint(t, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s", code, out)
	}
	if !strings.Contains(out, "unbounded loop in Spin") {
		t.Fatalf("finding not printed:\n%s", out)
	}
}

// TestIgnoreDirective drives the //lint:ignore grammar through the
// CLI: a reasoned directive clears the finding, and one naming a retired
// analyzer is itself a finding.
func TestIgnoreDirective(t *testing.T) {
	waived := strings.Replace(dirtySrc, "\tfor i", "\t//lint:ignore ctxflow n is bounded by the caller\n\tfor i", 1)
	writeModule(t, map[string]string{"tmpmod.go": waived})
	if code, out, _ := lint(t, "./..."); code != 0 {
		t.Fatalf("waived exit = %d, want 0\nstdout: %s", code, out)
	}
	retired := strings.Replace(cleanSrc, "func Add", "//lint:ignore lockset guarded by mu\nfunc Add", 1)
	writeModule(t, map[string]string{"tmpmod.go": retired})
	code, out, _ := lint(t, "./...")
	if code != 1 || !strings.Contains(out, `unknown analyzer "lockset"`) {
		t.Fatalf("retired analyzer: exit = %d\nstdout: %s", code, out)
	}
}

// TestFlagIsUsageError: himaplint takes package patterns and nothing
// else.
func TestFlagIsUsageError(t *testing.T) {
	writeModule(t, map[string]string{"tmpmod.go": cleanSrc})
	code, _, errOut := lint(t, "-json", "./...")
	if code != 2 || !strings.Contains(errOut, "usage: himaplint <packages>") {
		t.Fatalf("exit = %d, want 2 with usage\nstderr: %s", code, errOut)
	}
}

func TestLoadFailureExitsTwo(t *testing.T) {
	writeModule(t, map[string]string{"tmpmod.go": "package tmpmod\n\nfunc broken( {\n"})
	if code, _, _ := lint(t, "./..."); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
