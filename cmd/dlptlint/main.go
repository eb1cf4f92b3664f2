// Command dlptlint runs the project's analyzer suite
// (internal/analysis/...) over the module:
//
//	go run ./cmd/dlptlint ./...
//
// loads, type-checks and analyzes the matched packages and exits 1 if
// any analyzer reports a finding. -run narrows to a comma-separated
// analyzer subset, -list prints the suite.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dlpt/internal/analysis"
	"dlpt/internal/analysis/load"
	"dlpt/internal/analysis/suite"
)

func main() {
	var (
		runFlag  = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		listFlag = flag.Bool("list", false, "list registered analyzers and exit")
	)
	flag.Parse()

	if *listFlag {
		for _, a := range suite.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := selectAnalyzers(*runFlag)
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	prog, err := load.Dir(root, patterns...)
	if err != nil {
		fatal(err)
	}

	findings := 0
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			diags, err := analysis.RunPackage(a, prog.Fset, pkg.Files, pkg.Types, pkg.Info, pkg.Path)
			if err != nil {
				fatal(err)
			}
			for _, d := range diags {
				findings++
				fmt.Fprintf(os.Stderr, "%s: %s: %s\n", prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "dlptlint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

func selectAnalyzers(runSpec string) []*analysis.Analyzer {
	if runSpec == "" {
		return suite.All()
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(runSpec, ",") {
		a := suite.Lookup(strings.TrimSpace(name))
		if a == nil {
			fatal(fmt.Errorf("unknown analyzer %q (use -list)", name))
		}
		out = append(out, a)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlptlint:", err)
	os.Exit(1)
}
