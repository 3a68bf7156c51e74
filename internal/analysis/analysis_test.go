package analysis

import (
	"path/filepath"
	"testing"
)

// TestFixtures runs each analyzer over its golden fixture package under
// testdata/src and verifies the diagnostics against the // want
// annotations — every want must be reported, every report must be
// wanted. The suppress fixture reuses the determinism analyzer to
// exercise the //lint:ignore grammar.
func TestFixtures(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer *Analyzer
	}{
		{"determinism", Determinism},
		{"errdiscipline", ErrDiscipline},
		{"ctxflow", Ctxflow},
		{"suppress", Determinism},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			t.Parallel()
			prog, err := LoadDir(filepath.Join("testdata", "src", tc.dir))
			if err != nil {
				t.Fatal(err)
			}
			problems, err := CheckFixture(prog, tc.analyzer)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range problems {
				t.Error(p)
			}
		})
	}
}

// TestModuleClean is the in-test mirror of the CI gate: the whole module
// must pass every analyzer under the default scope. A regression here is
// exactly what `go run ./cmd/himaplint ./...` would report.
func TestModuleClean(t *testing.T) {
	prog, err := Load(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(prog, All(), DefaultScope()) {
		t.Errorf("%s", d)
	}
}

// TestAnalyzerCatalogue pins the published analyzer set: names are part
// of the //lint:ignore grammar, so renaming one silently disables every
// existing suppression for it.
func TestAnalyzerCatalogue(t *testing.T) {
	want := []string{"determinism", "errdiscipline", "ctxflow"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() = %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("All()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
}
