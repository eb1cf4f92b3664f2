// Package suite is the project's analyzer list, the one cmd/dlptlint
// and the whole-repo conformance test share. Adding an analyzer to All
// is the single point where it joins the enforced set.
package suite

import (
	"dlpt/internal/analysis"
	"dlpt/internal/analysis/ctxflow"
	"dlpt/internal/analysis/determinism"
	"dlpt/internal/analysis/epochfence"
	"dlpt/internal/analysis/lockcheck"
)

// All returns the enforced analyzers, in the order they run.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockcheck.Analyzer,
		determinism.Analyzer,
		ctxflow.Analyzer,
		epochfence.Analyzer,
	}
}

// Lookup returns the analyzer with the given name, or nil.
func Lookup(name string) *analysis.Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
