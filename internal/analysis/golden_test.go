package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// The fset and source importer are shared across fixtures: the importer
// caches typechecked stdlib packages, so "math" and "fmt" are compiled
// from source once per test binary instead of once per fixture.
var (
	fixtureOnce sync.Once
	fixtureFset *token.FileSet
	fixtureImp  types.Importer
)

// fixturePkg parses and typechecks a set of in-memory source files as one
// package with the given import path, exactly the way Load prepares real
// packages for the runner.
func fixturePkg(t *testing.T, path string, files map[string]string) *Package {
	t.Helper()
	return fixturePkgImporting(t, path, files, nil)
}

// fixturePkgImporting is fixturePkg with in-memory dependencies: an import
// of a path in deps resolves to that package, any other to the standard
// library.
func fixturePkgImporting(t *testing.T, path string, files map[string]string, deps map[string]*types.Package) *Package {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureFset = token.NewFileSet()
		fixtureImp = importer.ForCompiler(fixtureFset, "source", nil)
	})
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var astFiles []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fixtureFset, name, files[name], parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		astFiles = append(astFiles, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: depImporter{deps, fixtureImp}}
	pkg, err := conf.Check(path, fixtureFset, astFiles, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fixtureFset, Files: astFiles, Types: pkg, Info: info}
}

// depImporter resolves in-memory fixture packages before falling back.
type depImporter struct {
	deps     map[string]*types.Package
	fallback types.Importer
}

func (d depImporter) Import(path string) (*types.Package, error) {
	if p, ok := d.deps[path]; ok {
		return p, nil
	}
	return d.fallback.Import(path)
}

// runGolden runs one analyzer (through the full runner, so suppression
// applies) and compares the formatted diagnostics against want.
func runGolden(t *testing.T, a *Analyzer, pkg *Package, want []string) {
	t.Helper()
	runGoldenProgram(t, a, []*Package{pkg}, want)
}

// runGoldenProgram is runGolden over several packages at once, for the
// whole-program analyzers.
func runGoldenProgram(t *testing.T, a *Analyzer, pkgs []*Package, want []string) {
	t.Helper()
	r := &Runner{Analyzers: []*Analyzer{a}}
	diags, err := r.Run(pkgs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.String())
	}
	if len(got) != len(want) {
		t.Fatalf("diagnostic count: got %d, want %d\ngot:  %q\nwant: %q", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diag %d:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

func TestFloatCmpGolden(t *testing.T) {
	pkg := fixturePkg(t, "fix/floatcmp", map[string]string{
		"fc.go": `package fix

func f(a, b float64, n int) bool {
	if a == b {
		return true
	}
	if a != 0 {
		return false
	}
	if n == 3 {
		return false
	}
	const c = 1.5
	if c == 1.5 {
		return true
	}
	return a != b
}
`,
	})
	runGolden(t, FloatCmp, pkg, []string{
		"fc.go:4:7: [floatcmp] floating-point == comparison; use an epsilon comparison (numeric.ApproxEqual)",
		"fc.go:17:11: [floatcmp] floating-point != comparison; use an epsilon comparison (numeric.ApproxEqual)",
	})
}

func TestNonFiniteGolden(t *testing.T) {
	src := `package sc

import "math"

func Bad(a, b float64) (float64, error) {
	return a / b, nil
}

func Good(a, b float64) (float64, error) {
	r := a / b
	if math.IsNaN(r) {
		return 0, nil
	}
	return r, nil
}

func NoErr(a, b float64) float64 {
	return a / b
}

func unexported(a, b float64) (float64, error) {
	return a / b, nil
}

type T struct{}

func (T) BadM(a, b float64) (float64, error) {
	return a / b, nil
}
`
	testSrc := `package sc

func BadInTest(a, b float64) (float64, error) {
	return a / b, nil
}
`
	pkg := fixturePkg(t, "ivory/internal/sc", map[string]string{
		"nf.go":      src,
		"nf_test.go": testSrc,
	})
	runGolden(t, NonFinite, pkg, []string{
		"nf.go:5:6: [nonfinite] exported function Bad divides floats but never checks finiteness; guard results with numeric.Finite/AllFinite (or math.IsNaN/IsInf) before returning",
		"nf.go:27:10: [nonfinite] exported method BadM divides floats but never checks finiteness; guard results with numeric.Finite/AllFinite (or math.IsNaN/IsInf) before returning",
	})

	// The same sources outside a model package report nothing.
	other := fixturePkg(t, "fix/elsewhere", map[string]string{"nf.go": src})
	runGolden(t, NonFinite, other, nil)
}

func TestPowSquareGolden(t *testing.T) {
	pkg := fixturePkg(t, "fix/pow", map[string]string{
		"pw.go": `package fix

import "math"

func f(x float64) float64 {
	a := math.Pow(x, 2)
	b := math.Pow(x, 0.5)
	c := math.Pow(x, 3)
	d := math.Pow(2, x)
	return a + b + c + d
}
`,
	})
	runGolden(t, PowSquare, pkg, []string{
		"pw.go:6:7: [powsquare] math.Pow(x, 2) on a sweep path; write x*x (exact and far cheaper)",
		"pw.go:7:7: [powsquare] math.Pow(x, 0.5) on a sweep path; write math.Sqrt(x) (exact and far cheaper)",
	})
}

func TestUnitSuffixGolden(t *testing.T) {
	pkg := fixturePkg(t, "ivory/internal/tech", map[string]string{
		"us.go": `package tech

type Dev struct {
	VMax float64
	RonOhm float64
	Area float64
	Scale float64
	count int
	Name string
}

func Calib(fsw, alpha float64) error { return nil }
`,
	})
	runGolden(t, UnitSuffix, pkg, []string{
		"us.go:6:2: [unitsuffix] exported float64 field Dev.Area carries no unit in its name; add a unit token or a quantity-symbol prefix",
		"us.go:7:2: [unitsuffix] exported float64 field Dev.Scale carries no unit in its name; add a unit token or a quantity-symbol prefix",
		"us.go:12:17: [unitsuffix] float64 parameter alpha of exported Calib carries no unit in its name; add a unit token or a quantity-symbol prefix",
	})
}

func TestDroppedErrGolden(t *testing.T) {
	pkg := fixturePkg(t, "fix/drop", map[string]string{
		"de.go": `package fix

import (
	"fmt"
	"os"
	"strings"
)

func fallible() error { return nil }

func f() {
	fallible()
	_ = fallible()
	defer fallible()
	go fallible()
	fmt.Println("ok")
	var sb strings.Builder
	sb.WriteString("x")
	fmt.Fprintf(os.Stderr, "x")
	fmt.Fprintf(&sb, "x")
	fmt.Fprintf(os.Stdout, "x")
}
`,
	})
	runGolden(t, DroppedErr, pkg, []string{
		"de.go:12:2: [droppederr] error result of fallible is discarded; handle it or assign it to _ explicitly",
		"de.go:14:8: [droppederr] error result of deferred fallible is discarded; handle it or assign it to _ explicitly",
		"de.go:15:5: [droppederr] error result of go fallible is discarded; handle it or assign it to _ explicitly",
	})
}

// TestIgnoreDirectives exercises suppression end to end: same-line and
// line-above directives suppress, a wrong-name directive does not, and a
// malformed directive (no reason) is itself reported and suppresses
// nothing.
func TestIgnoreDirectives(t *testing.T) {
	pkg := fixturePkg(t, "fix/ignore", map[string]string{
		"ig.go": `package fix

func g(a, b float64) bool {
	if a == b { //lint:ignore floatcmp exact check is intentional here
		return true
	}
	//lint:ignore floatcmp tolerated
	if a != b {
		return false
	}
	//lint:ignore droppederr wrong analyzer
	if a == b {
		return true
	}
	//lint:ignore floatcmp
	return a != b
}
`,
	})
	runGolden(t, FloatCmp, pkg, []string{
		"ig.go:12:7: [floatcmp] floating-point == comparison; use an epsilon comparison (numeric.ApproxEqual)",
		"ig.go:15:2: [ignore] malformed //lint:ignore directive: want `//lint:ignore <analyzer>[,<analyzer>] <reason>`",
		"ig.go:16:11: [floatcmp] floating-point != comparison; use an epsilon comparison (numeric.ApproxEqual)",
	})
}

// TestStaleIgnore pins the stale-directive contract: a directive that
// suppressed a finding stays silent, one that suppresses nothing is
// itself reported, and one naming an analyzer that did not run (disabled
// or absent from the Runner) is exempt.
func TestStaleIgnore(t *testing.T) {
	pkg := fixturePkg(t, "fix/stale", map[string]string{
		"st.go": `package fix

func eq(a, b float64) bool {
	//lint:ignore floatcmp exact sentinel comparison
	return a == b
}

func ne(a, b float64) bool {
	//lint:ignore floatcmp nothing on the next line compares floats
	return a < b
}

func lt(a, b float64) bool {
	//lint:ignore droppederr that analyzer is not running here
	return a < b
}
`,
	})
	runGolden(t, FloatCmp, pkg, []string{
		"st.go:9:2: [ignore] stale //lint:ignore floatcmp: it suppresses nothing on this or the next line; delete it",
	})

	// With floatcmp disabled, its directives are exempt from staleness:
	// the analyzer that might have matched never ran.
	r := &Runner{Analyzers: []*Analyzer{FloatCmp}, Disabled: map[string]bool{"floatcmp": true}}
	diags, err := r.Run([]*Package{pkg})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("directives for a disabled analyzer reported stale: %v", diags)
	}
}

func TestRunnerDisable(t *testing.T) {
	pkg := fixturePkg(t, "fix/disable", map[string]string{
		"ds.go": `package fix

func h(a, b float64) bool { return a == b }
`,
	})
	r := &Runner{Analyzers: All(), Disabled: map[string]bool{"floatcmp": true}}
	diags, err := r.Run([]*Package{pkg})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("disabled analyzer still reported: %v", diags)
	}
}

// TestLoadModule checks the loader end to end on a real package of this
// module: pattern expansion, module-path resolution, and source-importer
// typechecking of an in-module dependency (ivory/internal/numeric).
func TestLoadModule(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./internal/ivr"})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	found := false
	for _, p := range pkgs {
		if p.Path == "ivory/internal/ivr" {
			found = true
			if p.Types == nil || len(p.Files) == 0 {
				t.Fatalf("package loaded without types or files: %+v", p)
			}
		}
	}
	if !found {
		t.Fatalf("ivory/internal/ivr not among loaded packages: %v", pkgs)
	}
}
