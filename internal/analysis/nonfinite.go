package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// nonFinitePackages lists the import-path suffixes of the model packages
// whose exported entry points must guard against NaN/Inf.
var nonFinitePackages = []string{
	"internal/sc",
	"internal/buck",
	"internal/ldo",
	"internal/core",
	"internal/dynamic",
	"internal/pdn",
}

// NonFinite flags exported model-entry functions that perform
// floating-point division yet never check finiteness before returning.
//
// A division by a degenerate operating point (zero load, collapsed
// output) turns an efficiency into NaN; NaN compares false with
// everything, so an unguarded NaN silently loses every comparison in the
// optimizer's ranking loop and corrupts the reported Pareto front rather
// than crashing. The rule: in the model packages (nonFinitePackages), an
// exported function or method whose last result is error and whose body
// divides floats must call math.IsNaN / math.IsInf or one of the shared
// guards (numeric.Finite, numeric.AllFinite, ivr.Metrics.Finite — any
// callee whose name contains "Finite") before returning.
//
// Test files are exempt; so are functions whose divisions are all guarded
// transitively in a callee — suppress those with
// //lint:ignore nonfinite <reason>.
var NonFinite = &Analyzer{
	Name: "nonfinite",
	Doc:  "flag exported model entry points that divide floats without a NaN/Inf guard",
	Run:  runNonFinite,
}

func runNonFinite(pass *Pass) error {
	if !pathMatches(pass.Pkg.Path(), nonFinitePackages) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() || pass.InTestFile(fd.Pos()) {
				continue
			}
			if !returnsError(pass, fd) {
				continue
			}
			divides, guarded := scanBody(pass, fd.Body)
			if divides && !guarded {
				kind := "function"
				if fd.Recv != nil {
					kind = "method"
				}
				pass.Reportf(fd.Name.Pos(),
					"exported %s %s divides floats but never checks finiteness; guard results with numeric.Finite/AllFinite (or math.IsNaN/IsInf) before returning",
					kind, fd.Name.Name)
			}
		}
	}
	return nil
}

func pathMatches(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// returnsError reports whether the function's last result is error.
func returnsError(pass *Pass, fd *ast.FuncDecl) bool {
	res := fd.Type.Results
	if res == nil || len(res.List) == 0 {
		return false
	}
	last := res.List[len(res.List)-1]
	t := pass.TypeOf(last.Type)
	return t != nil && t.String() == "error"
}

// scanBody looks for float divisions and finiteness-guard calls.
func scanBody(pass *Pass, body *ast.BlockStmt) (divides, guarded bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.QUO && (IsFloat(pass.TypeOf(n.X)) || IsFloat(pass.TypeOf(n.Y))) {
				divides = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.QUO_ASSIGN {
				if len(n.Lhs) == 1 && IsFloat(pass.TypeOf(n.Lhs[0])) {
					divides = true
				}
			}
		case *ast.CallExpr:
			if isFiniteGuard(CalleeName(n)) {
				guarded = true
			}
		}
		return true
	})
	return divides, guarded
}

// isFiniteGuard recognizes finiteness checks by callee name: math.IsNaN,
// math.IsInf, and any function or method whose name mentions Finite
// (numeric.Finite, numeric.AllFinite, Metrics.Finite, ...).
func isFiniteGuard(name string) bool {
	return name == "IsNaN" || name == "IsInf" || strings.Contains(name, "Finite")
}
