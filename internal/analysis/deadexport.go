package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadExport flags exported package-level funcs, methods, types, consts
// and vars declared in non-test files under internal/ that no non-test
// file of the loaded program references. Such an identifier is kept alive
// only by its tests: delete it, or unexport it if the package itself
// still needs it.
//
// It is a whole-program check, meaningful over ./...: the programs in
// cmd/, examples/, the root package and bench/ are what make an internal
// export live. With no main package loaded there is no program to judge
// against, and the runner skips it. Objects are matched by package path,
// receiver type name and name rather than by pointer, because the source
// importer typechecks each import separately and the same declaration is
// a different types.Object in every package that imports it. A reference
// from inside the declaration's own body (recursion) does not count, and
// a method whose name matches a method of any interface in the program
// (String, Error, ...) counts as used, since it may be called
// only through that interface.
var DeadExport = &Analyzer{
	Name:    "deadexport",
	Doc:     "flag exported identifiers under internal/ that only tests reference (needs a main package loaded: lint ./...)",
	Run:     runDeadExport,
	Program: true,
}

func runDeadExport(pass *Pass) error {
	used := map[string]bool{}
	ifaceMethods := map[string]bool{}
	addIfaceMethods(ifaceMethods, types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIfaceMethods(ifaceMethods, tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pass.Pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			addIfaceMethods(ifaceMethods, tv.Type)
		}
		for _, f := range pkg.Files {
			if pass.InTestFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				self := ""
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = objectKey(pkg.Info.Defs[fd.Name])
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if k := objectKey(pkg.Info.Uses[id]); k != "" && k != self {
							used[k] = true
						}
					}
					return true
				})
			}
		}
	}

	dead := func(obj types.Object) bool {
		return obj.Exported() && !pass.InTestFile(obj.Pos()) && !used[objectKey(obj)]
	}
	for _, pkg := range pass.Pkgs {
		if !strings.Contains(pkg.Path, "/internal/") || strings.HasSuffix(pkg.Path, ".test") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if dead(obj) {
				pass.Reportf(obj.Pos(), "exported %s %s is referenced only from tests; delete it or unexport it", kindOf(obj), name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); dead(m) && !ifaceMethods[m.Name()] {
					pass.Reportf(m.Pos(), "exported method %s.%s is referenced only from tests; delete it or unexport it", name, m.Name())
				}
			}
		}
	}
	return nil
}

// objectKey names a package-level object or method by package path,
// receiver type and name, or "" for objects outside any package.
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	key := obj.Pkg().Path() + "." + obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				key = obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return key
}

func addIfaceMethods(names map[string]bool, t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			names[it.Method(i).Name()] = true
		}
	}
}

func kindOf(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}
