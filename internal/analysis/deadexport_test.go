package analysis

import (
	"go/types"
	"strings"
	"testing"
)

// deadExportProgram loads a two-package program: lib (under internal/,
// the package deadexport judges) and a main package importing it. The
// main package sees its own typechecked copy of lib, built from lib's
// non-test files only, as the source importer gives every importer — so
// the analyzer can only match lib's objects across packages by path,
// receiver and name, never by pointer.
func deadExportProgram(t *testing.T, lib map[string]string, tool string) []*Package {
	t.Helper()
	const libPath = "fix/internal/lib"
	libPkg := fixturePkg(t, libPath, lib)
	nonTest := map[string]string{}
	for name, src := range lib {
		if !strings.HasSuffix(name, "_test.go") {
			nonTest[name] = src
		}
	}
	libCopy := fixturePkg(t, libPath, nonTest).Types
	toolPkg := fixturePkgImporting(t, "fix/cmd/tool", map[string]string{"tool.go": tool},
		map[string]*types.Package{libPath: libCopy})
	return []*Package{libPkg, toolPkg}
}

// TestDeadExportGolden pins what fires: exports referenced only from a
// test file, or only from their own body, and a directive excusing an
// export that is used.
func TestDeadExportGolden(t *testing.T) {
	pkgs := deadExportProgram(t, map[string]string{
		"lib.go": `package lib

//lint:ignore deadexport main calls it, so this excuses nothing
func Used() int { return 1 }

func OnlyFromTests() int { return 3 }

func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

type T struct{}

func (T) Dead() int { return 4 }

var Unused = 1

const Limit = 2
`,
		"lib_test.go": `package lib

func useFromTests() int { return OnlyFromTests() + Recurse(2) + T{}.Dead() + Unused + Limit }
`,
	}, `package main

import "fix/internal/lib"

func main() { println(lib.Used(), lib.T{}) }
`)
	runGoldenProgram(t, DeadExport, pkgs, []string{
		"lib.go:3:1: [ignore] stale //lint:ignore deadexport: it suppresses nothing on this or the next line; delete it",
		"lib.go:6:6: [deadexport] exported func OnlyFromTests is referenced only from tests; delete it or unexport it",
		"lib.go:8:6: [deadexport] exported func Recurse is referenced only from tests; delete it or unexport it",
		"lib.go:17:10: [deadexport] exported method T.Dead is referenced only from tests; delete it or unexport it",
		"lib.go:19:5: [deadexport] exported var Unused is referenced only from tests; delete it or unexport it",
		"lib.go:21:7: [deadexport] exported const Limit is referenced only from tests; delete it or unexport it",
	})
	// Without the main package there is no program to judge lib against:
	// the analyzer does not run, so its directive is not stale either.
	runGoldenProgram(t, DeadExport, pkgs[:1], nil)
}

// TestDeadExportSilent pins what stays quiet: exports used only from
// another package's main (through that package's own copy of lib), or
// from elsewhere in lib; a method whose name some interface declares; the
// packages outside internal/; and a suppressed export.
func TestDeadExportSilent(t *testing.T) {
	pkgs := deadExportProgram(t, map[string]string{
		"lib.go": `package lib

import "io"

func FromMain() *T { return &T{helper()} }

func FromLib() int { return 1 }

func helper() int { return FromLib() }

type T struct{ n int }

func (t *T) Scale(k int) int { return t.n * k }

func (t *T) String() string { return "t" }

func (t *T) Flush() error { return nil }

var _ interface{ Flush() error } = (*T)(nil)

func (t *T) Write(p []byte) (int, error) { return len(p), nil }

var _ io.Writer = (*T)(nil)

//lint:ignore deadexport kept for the next caller
func Kept() {}
`,
	}, `package main

import "fix/internal/lib"

func Exported() {}

func main() { println(lib.FromMain().Scale(2)) }
`)
	runGoldenProgram(t, DeadExport, pkgs, nil)
}
