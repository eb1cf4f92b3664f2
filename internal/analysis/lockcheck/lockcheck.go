// Package lockcheck enforces the repo's mutex annotations: a struct
// field carrying a
//
//	// guarded by <mu>
//
// comment (doc or line comment; anything after the guard name is
// free-form, e.g. "guarded by mu (writers only)") may only be
// accessed in functions that visibly participate in the lock
// discipline. An access is accepted when, walking from the innermost
// enclosing function literal out to the declaration, one of the
// scopes
//
//   - acquires the guard on the same base value (`d.mu.Lock()`,
//     `d.mu.RLock()` for an access to `d.field`),
//   - is a function whose name ends in "Locked" (the repo's
//     caller-holds-the-lock naming convention), or
//   - carries a `dlptlint:held <mu>` directive (callers hold the
//     lock but the name predates the convention) or a
//     `dlptlint:exclusive` directive (single-threaded phase:
//     construction before the value escapes, teardown after the
//     last goroutine exited).
//
// The annotation travels with the field: an exported guarded field of
// another package (a shared core two packages embed, say) is held to
// the same rule wherever it is selected — its annotation is read from
// the file that declares it.
//
// The check is deliberately flow-insensitive: it proves that every
// call site THOUGHT about the lock, not that the lock is held at the
// exact instruction — that is what `go test -race` is for. The two
// tools fail in opposite directions (the race detector only sees
// schedules that actually happened; lockcheck sees every call site
// but trusts function-level evidence), which is why CI runs both.
//
// This invariant dates to PR 2 (atomic visit counters, mutex-guarded
// cluster state) and PR 8, which shipped a fix for exactly the bug
// shape this analyzer catches: a test helper's bytes.Buffer written
// by an exec pipe goroutine and read bare by the test.
package lockcheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"dlpt/internal/analysis"
)

// Analyzer is the guarded-field access checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "struct fields annotated `// guarded by <mu>` must be accessed with the named mutex held",
	Run:  run,
}

var guardedRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)
var heldRE = regexp.MustCompile(`dlptlint:held ([A-Za-z_][A-Za-z0-9_]*)`)

func run(pass *analysis.Pass) error {
	g := &guards{pass: pass, local: make(map[*types.Var]string), foreign: make(map[string]map[int]string)}
	for _, f := range pass.Files {
		eachGuardedName(f, func(name *ast.Ident, guard string) {
			if v, ok := pass.Info.Defs[name].(*types.Var); ok {
				g.local[v] = guard
			}
		})
	}
	for _, f := range pass.Files {
		checkFile(pass, f, g)
	}
	return nil
}

// guards resolves a field to the mutex its annotation names.
type guards struct {
	pass  *analysis.Pass
	local map[*types.Var]string // fields this package declares
	// foreign caches, per declaring file of an imported field, the
	// guard of each annotated field name by its line.
	foreign map[string]map[int]string
}

// of returns the guard of field v, "" when it has none.
func (g *guards) of(v *types.Var) string {
	if v.Pkg() == g.pass.Pkg || v.Pkg() == nil {
		return g.local[v]
	}
	// Declared elsewhere: only its position crossed the package
	// boundary, so read the annotation off the declaring file.
	pos := g.pass.Fset.Position(v.Pos())
	if !pos.IsValid() {
		return ""
	}
	byLine, ok := g.foreign[pos.Filename]
	if !ok {
		byLine = make(map[int]string)
		fset := token.NewFileSet()
		if f, err := parser.ParseFile(fset, pos.Filename, nil, parser.ParseComments|parser.SkipObjectResolution); err == nil {
			eachGuardedName(f, func(name *ast.Ident, guard string) {
				byLine[fset.Position(name.Pos()).Line] = guard
			})
		}
		g.foreign[pos.Filename] = byLine
	}
	return byLine[pos.Line]
}

// eachGuardedName calls fn for every annotated struct field name in f.
func eachGuardedName(f *ast.File, fn func(name *ast.Ident, guard string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, fld := range st.Fields.List {
			if guard := guardAnnotation(fld); guard != "" {
				for _, name := range fld.Names {
					fn(name, guard)
				}
			}
		}
		return true
	})
}

func guardAnnotation(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// funcScope is one nesting level: a declaration or a literal.
type funcScope struct {
	name string // declaration name, "" for literals
	doc  string // declaration doc text, "" for literals
	body *ast.BlockStmt
}

func checkFile(pass *analysis.Pass, f *ast.File, g *guards) {
	var stack []funcScope
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return false
			}
			stack = append(stack, funcScope{name: n.Name.Name, doc: n.Doc.Text(), body: n.Body})
			for _, stmt := range n.Body.List {
				ast.Inspect(stmt, visit)
			}
			stack = stack[:len(stack)-1]
			return false
		case *ast.FuncLit:
			stack = append(stack, funcScope{body: n.Body})
			for _, stmt := range n.Body.List {
				ast.Inspect(stmt, visit)
			}
			stack = stack[:len(stack)-1]
			return false
		case *ast.SelectorExpr:
			sel, ok := pass.Info.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			v, ok := sel.Obj().(*types.Var)
			if !ok {
				return true
			}
			guard := g.of(v)
			if guard == "" {
				return true
			}
			if !accessAllowed(stack, analysis.ExprString(n.X), guard) {
				pass.Reportf(n.Sel.Pos(),
					"field %s.%s is guarded by %q but accessed without evidence the lock is held (acquire %s.%s, use a *Locked function, or annotate dlptlint:held/exclusive)",
					analysis.ExprString(n.X), v.Name(), guard, analysis.ExprString(n.X), guard)
			}
			return true
		}
		return true
	}
	ast.Inspect(f, visit)
}

// accessAllowed walks the function stack innermost-out looking for
// lock evidence. Outer scopes count: a closure created while the
// lock is held (sync'd callbacks, deferred unlock blocks) inherits
// its declaration's discipline.
func accessAllowed(stack []funcScope, base, guard string) bool {
	if len(stack) == 0 {
		return false // package-scope initializer touching guarded state
	}
	for i := len(stack) - 1; i >= 0; i-- {
		sc := stack[i]
		if strings.HasSuffix(sc.name, "Locked") {
			return true
		}
		if sc.doc != "" {
			if strings.Contains(sc.doc, "dlptlint:exclusive") {
				return true
			}
			if m := heldRE.FindStringSubmatch(sc.doc); m != nil && m[1] == guard {
				return true
			}
		}
		if acquiresGuard(sc.body, base, guard) {
			return true
		}
	}
	return false
}

// acquiresGuard reports whether body contains base.guard.Lock / RLock
// / TryLock / TryRLock — the flow-insensitive evidence that this
// function participates in the guard's discipline.
func acquiresGuard(body *ast.BlockStmt, base, guard string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch method.Sel.Name {
		case "Lock", "RLock", "TryLock", "TryRLock":
		default:
			return true
		}
		muSel, ok := method.X.(*ast.SelectorExpr)
		if !ok || muSel.Sel.Name != guard {
			return true
		}
		if analysis.ExprString(muSel.X) == base {
			found = true
			return false
		}
		return true
	})
	return found
}
