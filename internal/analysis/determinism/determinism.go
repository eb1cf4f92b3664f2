// Package determinism guards the property the differential tests are
// built on: every engine produces byte-identical answers for the same
// logical state. The packages that compute wire values — the prefix
// trie and placement logic (internal/core, internal/pht,
// internal/pgrid, internal/trie, internal/keys), the attribute
// directory (internal/attrs), the catalogue codec
// (internal/catalog), and the transport frame codec — must
// not let any of Go's deliberate nondeterminism reach their output:
//
//   - map iteration order: ranging over a map is flagged unless the
//     collected result is sorted in the same function (sort.*,
//     slices.Sort*, or the repo's keys.SortKeys helpers). Sending map
//     elements to a channel is always flagged — ordering after the
//     fact cannot unscramble interleaved consumers.
//   - wall-clock time: time.Now/Since/Until make output depend on when
//     a node computed it, not what it knew.
//   - the global math/rand source: package-level rand.* calls draw
//     from a process-wide seed outside the test's control. Seeded
//     *rand.Rand values (the simnet's reproducible randomness) are
//     fine and do not match.
//   - goroutine scheduling: a `go` statement inside a deterministic
//     package means result order depends on the scheduler.
//
// Exemptions use //dlptlint:ignore determinism <reason> — metrics and
// logging legitimately read the clock; the reason documents why the
// value cannot reach the wire.
package determinism

import (
	"go/ast"
	"go/types"

	"dlpt/internal/analysis"
)

// Analyzer is the nondeterminism-source checker for wire-value
// packages.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "wire-value packages must not depend on map order, wall-clock, global math/rand, or goroutine scheduling",
	Run:  run,
}

// deterministicPkgs are the package base names whose outputs feed the
// wire or the cross-engine differential tests.
var deterministicPkgs = map[string]bool{
	"core":    true,
	"attrs":   true,
	"catalog": true,
	"pht":     true,
	"pgrid":   true,
	"trie":    true,
	"keys":    true,
}

// transportFiles are the codec files checked inside internal/transport
// (the rest of the package — dialing, pooling, timeouts — is
// legitimately time-dependent).
var transportFiles = map[string]bool{
	"frame.go":     true,
	"handshake.go": true,
	"wire.go":      true,
}

func run(pass *analysis.Pass) error {
	base := analysis.PkgBase(pass.PkgPath)
	whole := deterministicPkgs[base]
	if !whole && base != "transport" {
		return nil
	}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if !whole && !transportFiles[filepathBase(name)] {
			continue
		}
		checkFile(pass, f)
	}
	return nil
}

func filepathBase(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' || name[i] == '\\' {
			return name[i+1:]
		}
	}
	return name
}

func checkFile(pass *analysis.Pass, f *ast.File) {
	analysis.EnclosingFuncs([]*ast.File{f}, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in deterministic package: result order must not depend on goroutine scheduling")
			case *ast.RangeStmt:
				checkMapRange(pass, n, body)
			}
			return true
		})
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	if name, ok := analysis.IsPkgCall(pass.Info, call, "time"); ok {
		switch name {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "time.%s in deterministic package: wire values must not depend on wall-clock time", name)
		}
		return
	}
	if name, ok := analysis.IsPkgCall(pass.Info, call, "math/rand"); ok {
		// Constructing an explicitly-seeded source is the sanctioned
		// path; drawing from the global source is not.
		switch name {
		case "New", "NewSource":
		default:
			pass.Reportf(call.Pos(), "global math/rand.%s in deterministic package: use an explicitly seeded *rand.Rand", name)
		}
	}
}

// checkMapRange flags ranging over a map when the iteration feeds
// ordered output: appends whose destination is never sorted in the
// same function, or channel sends (unsortable after the fact).
// Iterations that only aggregate (counting, summing, set membership)
// are order-insensitive and pass.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok || !isMap(tv.Type) {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "map iteration feeds a channel send: receiver observes nondeterministic order")
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(n.Lhs) {
					continue
				}
				dest := analysis.ExprString(n.Lhs[i])
				if dest == "" || dest == "_" {
					continue
				}
				if !sortedLater(pass, fnBody, dest) {
					pass.Reportf(n.Pos(), "append inside map iteration builds %s in nondeterministic order; sort it before use or iterate sorted keys", dest)
				}
			}
		}
		return true
	})
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, builtin := pass.Info.Uses[id].(*types.Builtin)
	return builtin
}

// sortedLater reports whether the function body contains a sort call
// (sort.*, slices.Sort*, or the repo's keys.SortKeys) that mentions
// dest in its arguments — the evidence that the nondeterministically
// built slice is canonicalized before anything observes it.
func sortedLater(pass *analysis.Pass, body *ast.BlockStmt, dest string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		sorting := false
		switch pkg.Name {
		case "sort":
			sorting = true
		case "slices":
			sorting = len(sel.Sel.Name) >= 4 && sel.Sel.Name[:4] == "Sort"
		case "keys":
			sorting = sel.Sel.Name == "SortKeys" || sel.Sel.Name == "SortIDs"
		}
		if !sorting {
			return true
		}
		for _, arg := range call.Args {
			if analysis.HasIdent(arg, rootIdent(dest)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// rootIdent reduces "out.items" / "r.keys" to the leading identifier
// so HasIdent can find it inside sort arguments.
func rootIdent(expr string) string {
	for i := 0; i < len(expr); i++ {
		if expr[i] == '.' || expr[i] == '[' {
			return expr[:i]
		}
	}
	return expr
}
