// Package analysis is Ivory's stdlib-only static-analysis framework.
//
// The paper's central claim — SPICE-class accuracy at 10^3–10^5× speed —
// only holds if the model code never silently produces NaN/Inf
// efficiencies, never compares float64 with ==, and keeps physical units
// straight. The analyzers in this package encode those invariants as
// machine-checked rules; cmd/ivory-lint runs them over the whole module
// and gates CI.
//
// The framework deliberately uses nothing outside the standard library
// (go/ast, go/parser, go/types, go/importer): go.mod stays
// dependency-free. The shape mirrors golang.org/x/tools/go/analysis —
// an Analyzer owns a Run function that inspects one typechecked package
// through a Pass and reports Diagnostics — but is much smaller.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -disable flags, and
	// //lint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a short human-readable description of what the analyzer
	// reports and why.
	Doc string
	// Run inspects the package behind pass and reports findings via
	// pass.Reportf. Returning an error aborts the whole lint run (use it
	// for internal failures, not findings).
	Run func(pass *Pass) error
	// Program marks a whole-program analyzer: the runner calls Run once,
	// with Pass.Pkgs holding every loaded package and Files, Pkg and Info
	// left nil, and only when a main package is among them.
	Program bool
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer is the name of the analyzer that produced it.
	Analyzer string
	// Message describes the finding.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one typechecked package through one analyzer run.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token.Pos values to file positions.
	Fset *token.FileSet
	// Files are the parsed source files of the package, tests included.
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// Info holds the type information recorded during checking.
	Info *types.Info
	// Pkgs is every loaded package; set only for Program analyzers.
	Pkgs []*Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. API-hygiene
// analyzers (unitsuffix, nonfinite) skip test files; correctness analyzers
// (floatcmp, droppederr, powsquare) do not.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.Position(pos).Filename
	return len(f) >= len("_test.go") && f[len(f)-len("_test.go"):] == "_test.go"
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	// Idents on the left of := are definitions, not typed expressions;
	// resolve them through their object like types.Info.TypeOf does.
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// IsFloat reports whether t's underlying type is a floating-point basic
// type (float32, float64, or an untyped float constant).
func IsFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// CalleeName returns the bare name of a call's callee — "IsNaN" for
// math.IsNaN(x), "Close" for f.Close(), "foo" for foo() — or "" when the
// callee is not an identifier or selector (e.g. a call of a call).
func CalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// CalleeFunc resolves the called function or method object, or nil for
// builtins, conversions, and function-valued expressions.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}
