package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestWorkersFlagKeepsConventionalMapping pins the -workers help text
// ("the mapping is identical either way") for the conventional mapper:
// the flag must not reach the SA chain count, which changes the mapping.
func TestWorkersFlagKeepsConventionalMapping(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "himap")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	saved := func(workers string) []byte {
		path := filepath.Join(dir, "w"+workers+".json")
		out, err := exec.Command(bin, "-mapper", "conventional", "-kernel", "FW",
			"-rows", "4", "-cols", "4", "-block", "2", "-workers", workers, "-save", path).CombinedOutput()
		if err != nil {
			t.Fatalf("himap -workers %s: %v\n%s", workers, err, out)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(saved("1"), saved("4")) {
		t.Error("-save bytes differ between -workers 1 and -workers 4")
	}
}
