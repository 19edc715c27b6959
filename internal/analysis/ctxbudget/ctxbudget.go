// Package ctxbudget enforces the repo's budget-threading convention
// (DESIGN.md §10.1): expensive entry points must be cancelable.
//
// Two rules apply to the provider packages (the compute kernels:
// bipartite, matching, core, recipe, relation, itemsetrisk):
//
//  1. An exported function or method whose body contains a loop nest of
//     depth ≥ 2 — the mechanical signature of "iterates over the dataset or
//     graph, possibly superlinearly" — must accept a context.Context.
//  2. context.Background()/context.TODO() may not originate inside a
//     provider: a kernel that invents its own context cannot be canceled
//     by its caller. This also rules out the convenience twin
//     `F` → `FCtx(context.Background(), ...)`; such wrappers live only in
//     the public facade (anonrisk.go).
//
// Every heavy provider kernel thus has exactly one, cancelable spelling, and
// no caller — serving layer or otherwise — can reach it without handing it
// a context.
package ctxbudget

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Role describes how the analyzer treats a package.
type Role int

const (
	// RoleNone disables the analyzer for the package.
	RoleNone Role = iota
	// RoleProvider applies rules 1 and 2 (exported loopers need ctx;
	// contexts may not originate here).
	RoleProvider
)

// Providers holds the import paths the rules apply to. cmd/riskvet wires
// the real repo layout; tests substitute fixtures.
var Providers = map[string]bool{
	"repro/internal/bipartite":   true,
	"repro/internal/matching":    true,
	"repro/internal/core":        true,
	"repro/internal/recipe":      true,
	"repro/internal/relation":    true,
	"repro/internal/itemsetrisk": true,
}

// RoleOf reports the role of an import path.
func RoleOf(path string) Role {
	if Providers[path] {
		return RoleProvider
	}
	return RoleNone
}

// Analyzer is the ctxbudget check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxbudget",
	Doc: "exported compute kernels with nested loops must accept a context.Context, " +
		"and kernels must not originate contexts",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if RoleOf(pass.Pkg.Path()) == RoleProvider {
		checkProvider(pass)
	}
	return nil
}

// --- rule 1: exported loopers need a context ---

func checkProvider(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			if hasContextParam(pass, fn) || maxLoopDepth(fn.Body) < 2 {
				continue
			}
			pass.Reportf(fn.Name.Pos(),
				"exported %s loops over its input (nest depth ≥ 2) but does not accept a context.Context; heavy work must be budgetable",
				fn.Name.Name)
		}
		checkNoContextOrigin(pass, f)
	}
}

// hasContextParam reports whether any parameter's type is context.Context.
func hasContextParam(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// maxLoopDepth computes the deepest for/range nesting in a body. Function
// literals inherit the depth of the point where they appear: a loop inside
// a closure that is itself created inside a loop still runs many times.
func maxLoopDepth(body *ast.BlockStmt) int {
	max := 0
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch mm := m.(type) {
			case *ast.ForStmt:
				if depth+1 > max {
					max = depth + 1
				}
				walk(mm.Body, depth+1)
				return false
			case *ast.RangeStmt:
				if depth+1 > max {
					max = depth + 1
				}
				walk(mm.Body, depth+1)
				return false
			}
			return true
		})
	}
	walk(body, 0)
	return max
}

// --- rule 2: contexts may not originate inside providers ---

func checkNoContextOrigin(pass *analysis.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fnObj := callTarget(pass, call); fnObj != nil &&
				fnObj.Pkg() != nil && fnObj.Pkg().Path() == "context" &&
				(fnObj.Name() == "Background" || fnObj.Name() == "TODO") {
				pass.Reportf(call.Pos(),
					"context.%s originates inside a compute kernel; accept a context.Context from the caller",
					fnObj.Name())
			}
			return true
		})
	}
}

// callTarget resolves the *types.Func a call invokes, or nil for calls of
// function values, conversions, and builtins.
func callTarget(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
