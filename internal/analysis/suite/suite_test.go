package suite_test

import (
	"path/filepath"
	"testing"

	"dlpt/internal/analysis"
	"dlpt/internal/analysis/load"
	"dlpt/internal/analysis/suite"
)

// TestSuiteCleanOverRepo is the in-tree twin of the CI dlptlint step:
// the whole module must lint clean. A finding here means new code
// broke an invariant (fix it) or needs a documented annotation or
// //dlptlint:ignore (add one).
func TestSuiteCleanOverRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := load.Dir(root, "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, pkg := range prog.Packages {
		for _, a := range suite.All() {
			diags, err := analysis.RunPackage(a, prog.Fset, pkg.Files, pkg.Types, pkg.Info, pkg.Path)
			if err != nil {
				t.Fatalf("%s over %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				t.Errorf("%s: %s: %s", prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
			}
		}
	}
}

// TestRegistry pins the suite contents: dropping an analyzer from the
// list would silently stop enforcing its invariant.
func TestRegistry(t *testing.T) {
	want := []string{"lockcheck", "determinism", "ctxflow", "epochfence"}
	got := suite.All()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Errorf("suite[%d] = %s, want %s", i, got[i].Name, name)
		}
		if suite.Lookup(name) == nil {
			t.Errorf("Lookup(%q) = nil", name)
		}
	}
}
