// Package analysistest runs a dlptlint analyzer over a fixture
// directory and checks its findings against `// want` comments — the
// same contract as golang.org/x/tools/go/analysis/analysistest,
// reimplemented on the standard library.
//
// A fixture is one package per directory under testdata/src/<name>;
// the directory's base name becomes the package path, so analyzers
// scoped by package (determinism's deterministic-package list,
// epochfence's daemon scope) are exercised by naming the fixture
// directory accordingly. Expectations are written on the offending
// line:
//
//	rand.Int() // want `unseeded global math/rand`
//
// The backquoted pattern is a regexp matched against the diagnostic
// message; several patterns on one line demand several diagnostics.
// Fixture imports resolve to a sibling fixture directory when
// testdata/src has one by that path, and otherwise from source
// (GOROOT), so fixtures may use other fixtures and any standard
// library package but nothing module-internal — which keeps each
// analyzer's contract self-contained and documented by its own
// testdata.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dlpt/internal/analysis"
)

var wantRE = regexp.MustCompile("// want (.*)$")

// expectation is one `// want` pattern with its location.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run analyzes testdata/src/<pkg> under dir and reports mismatches
// between diagnostics and want comments on t.
func Run(t *testing.T, dir, pkg string, a *analysis.Analyzer) {
	t.Helper()
	fset := token.NewFileSet()
	im := &fixtureImporter{src: filepath.Join(dir, "testdata", "src"), fset: fset,
		std: importer.ForCompiler(fset, "source", nil)}
	files, tpkg, info, err := im.check(pkg)
	if err != nil {
		t.Fatalf("fixture %s: %v", pkg, err)
	}

	diags, err := analysis.RunPackage(a, fset, files, tpkg, info, pkg)
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	wants := collectWants(t, fset, files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if w := match(wants, pos, d.Message); w == nil {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// fixtureImporter type-checks fixture packages from testdata/src and
// hands every other import path to the source importer.
type fixtureImporter struct {
	src  string
	fset *token.FileSet
	std  types.Importer
}

func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(im.src, path)); err != nil || !st.IsDir() {
		return im.std.Import(path)
	}
	_, tpkg, _, err := im.check(path)
	return tpkg, err
}

// check parses and type-checks the fixture package at src/<pkg>.
func (im *fixtureImporter) check(pkg string) ([]*ast.File, *types.Package, *types.Info, error) {
	fixture := filepath.Join(im.src, pkg)
	entries, err := os.ReadDir(fixture)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(im.fset, filepath.Join(fixture, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, nil, fmt.Errorf("%s holds no Go files", fixture)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, err := (&types.Config{Importer: im}).Check(pkg, im.fset, files, info)
	return files, tpkg, info, err
}

func match(wants []*expectation, pos token.Position, msg string) *expectation {
	for _, w := range wants {
		if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.pattern.MatchString(msg) {
			w.matched = true
			return w
		}
	}
	return nil
}

// collectWants parses the `// want` comments into expectations.
// Patterns are backquoted regexps, several per comment allowed.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range splitPatterns(m[1]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, raw, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

// splitPatterns extracts the backquoted segments of a want comment.
func splitPatterns(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '`')
		if i < 0 {
			break
		}
		s = s[i+1:]
		j := strings.IndexByte(s, '`')
		if j < 0 {
			break
		}
		out = append(out, s[:j])
		s = s[j+1:]
	}
	return out
}
