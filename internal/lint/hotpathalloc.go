package lint

import (
	"go/ast"
	"go/types"
)

// HotPathAlloc enforces the "//wm:hotpath" annotation contract: a
// function so marked (or every function in a file whose header carries
// the pragma) sits on a path the benchmarks guard — the SVG lexer, the
// tsdb JSON encoder, the grid scan, the ordered pool, rollup decode — and
// must not re-introduce the allocation and syscall classes those paths
// were rewritten to avoid:
//
//   - any call into package fmt (Sprintf and friends reflect over
//     arguments and allocate; hot-path errors use typed errors or
//     strconv-built strings);
//   - any use of encoding/json (reflection-driven; hot paths use the
//     append-style encoders in jsonenc.go);
//   - time.Now (a vDSO call per element adds up at millions of calls;
//     hot paths take the time once at the boundary);
//   - append to a variable captured by a closure ("append-into-escaping
//     closure"): the capture forces the slice header to the heap and
//     every growth reallocates under the escaped header.
//
// The check is lexical per function body, nested closures included;
// calls that fan out to cold helpers are the helper's business. Cold
// branches inside a hot function (a can't-happen error return, say) are
// suppressed case by case with //lint:ignore wmlint/hotpathalloc.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "forbid fmt, encoding/json, time.Now and closure-captured appends " +
		"in functions annotated //wm:hotpath",
	Run: runHotPathAlloc,
}

const hotPragma = "wm:hotpath"

func runHotPathAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		fileHot := fileHasPragma(f, hotPragma)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fileHot || funcHasPragma(fn, hotPragma) {
				checkHotFunc(pass, fn)
			}
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	checkedLit := map[*ast.FuncLit]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if obj := pass.TypesInfo.Uses[n.Sel]; obj != nil && obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "fmt":
					pass.Reportf(n.Pos(),
						"hot path (//wm:hotpath) calls fmt.%s, which reflects over "+
							"its arguments and allocates", obj.Name())
				case "encoding/json":
					pass.Reportf(n.Pos(),
						"hot path (//wm:hotpath) uses encoding/json (%s); use the "+
							"append-style encoders instead", obj.Name())
				}
			}
		case *ast.CallExpr:
			if isPkgFunc(pass.TypesInfo, n, "time", "Now") {
				pass.Reportf(n.Pos(),
					"hot path (//wm:hotpath) calls time.Now; take the time once at "+
						"the boundary and pass it in")
			}
		case *ast.FuncLit:
			if !checkedLit[n] {
				// One closure check covers its nested literals too; mark
				// them so they aren't re-checked (and re-reported).
				ast.Inspect(n, func(m ast.Node) bool {
					if l, ok := m.(*ast.FuncLit); ok {
						checkedLit[l] = true
					}
					return true
				})
				checkClosureAppends(pass, n)
			}
			// Keep walking: the closure body is part of the hot path and
			// its fmt/json/time.Now uses are flagged by the outer walk.
		}
		return true
	})
}

// checkClosureAppends flags "x = append(x, ...)" inside the closure when
// x is declared outside it — the escaping-capture append the lexer and
// encoder rewrites removed.
func checkClosureAppends(pass *Pass, lit *ast.FuncLit) {
	// Objects declared within the literal (params and locals) are exempt.
	local := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			return true
		}
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
			return true // a user-defined append, not the builtin
		}
		target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[target]
		if obj == nil || local[obj] || obj.Parent() == types.Universe {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		pass.Reportf(call.Pos(),
			"hot path (//wm:hotpath) appends to %q captured by this closure; "+
				"the capture escapes the slice header to the heap", target.Name)
		return true
	})
	// Note: package-level variables reach here too — appending to a
	// global from a hot closure is at least as bad as a capture.
}
