package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Runner executes a set of analyzers over loaded packages, applies
// //lint:ignore suppression, and returns the surviving diagnostics in
// position order.
type Runner struct {
	// Analyzers are run in order over every package; Program analyzers
	// run once, after the per-package ones, over all packages together.
	Analyzers []*Analyzer
	// Disabled names analyzers to skip.
	Disabled map[string]bool
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	names  map[string]bool // analyzer names it suppresses
	pos    token.Position  // where the comment sits
	broken string          // non-empty: malformed-directive message
	used   bool            // suppressed at least one diagnostic this run
}

// Run executes the enabled analyzers over pkgs. A diagnostic is dropped
// when a matching `//lint:ignore <name> <reason>` comment sits on the
// same line or the line directly above it. Malformed directives (missing
// analyzer name or reason) are themselves reported under the "ignore"
// analyzer so they cannot silently suppress nothing.
func (r *Runner) Run(pkgs []*Package) ([]Diagnostic, error) {
	// Program analyzers need a whole program: without a main package
	// every export's callers may simply not be loaded.
	program := false
	for _, pkg := range pkgs {
		program = program || pkg.Types.Name() == "main"
	}
	ran := map[string]bool{}
	for _, a := range r.Analyzers {
		ran[a.Name] = !r.Disabled[a.Name] && (!a.Program || program)
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		// A degraded package reports its type errors in place and still
		// runs the analyzers over whatever partial type info survived.
		for _, te := range pkg.TypeErrors {
			pos := token.Position{Filename: pkg.Dir}
			if te.Fset != nil && te.Pos.IsValid() {
				pos = te.Fset.Position(te.Pos)
			}
			diags = append(diags, Diagnostic{Pos: pos, Analyzer: "typecheck", Message: te.Msg})
		}
		for _, a := range r.Analyzers {
			if !ran[a.Name] || a.Program {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range r.Analyzers {
		if !ran[a.Name] || !a.Program {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: pkgs[0].Fset, Pkgs: pkgs, diags: &diags}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
	}
	diags = suppress(pkgs, diags, ran)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// suppress applies ignore directives and appends diagnostics for
// malformed and stale ones; ran names the analyzers that ran.
func suppress(pkgs []*Package, diags []Diagnostic, ran map[string]bool) []Diagnostic {
	// filename -> line -> directives on that line.
	byFile := map[string]map[int][]*ignoreDirective{}
	var all []*ignoreDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d, ok := parseIgnore(c.Text)
					if !ok {
						continue
					}
					d.pos = pkg.Fset.Position(c.Pos())
					m := byFile[d.pos.Filename]
					if m == nil {
						m = map[int][]*ignoreDirective{}
						byFile[d.pos.Filename] = m
					}
					dir := &d
					m[d.pos.Line] = append(m[d.pos.Line], dir)
					all = append(all, dir)
					if d.broken != "" {
						diags = append(diags, Diagnostic{
							Pos:      d.pos,
							Analyzer: "ignore",
							Message:  d.broken,
						})
					}
				}
			}
		}
	}
	var kept []Diagnostic
	for _, d := range diags {
		if d.Analyzer != "ignore" && suppressed(byFile, d) {
			continue
		}
		kept = append(kept, d)
	}
	// A directive that suppressed nothing is stale — the code it excused
	// was fixed or moved, and a rotten suppression would hide the next
	// real finding at its line. A directive naming any analyzer that did
	// not run (disabled, absent from this Runner, or a Program analyzer
	// without a main package to judge against) is exempt: the
	// analyzer that might have matched never had the chance.
	for _, dir := range all {
		if dir.broken != "" || dir.used {
			continue
		}
		allRan := true
		for n := range dir.names {
			if !ran[n] {
				allRan = false
			}
		}
		if !allRan {
			continue
		}
		kept = append(kept, Diagnostic{
			Pos:      dir.pos,
			Analyzer: "ignore",
			Message: fmt.Sprintf("stale //lint:ignore %s: it suppresses nothing on this or the next line; delete it",
				joinNames(dir.names)),
		})
	}
	return kept
}

func joinNames(names map[string]bool) string {
	var ns []string
	for n := range names {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, ",")
}

func suppressed(byFile map[string]map[int][]*ignoreDirective, d Diagnostic) bool {
	lines := byFile[d.Pos.Filename]
	if lines == nil {
		return false
	}
	// Trailing comment on the same line, or a directive on the line above.
	for _, ln := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range lines[ln] {
			if dir.broken == "" && dir.names[d.Analyzer] {
				dir.used = true
				return true
			}
		}
	}
	return false
}

// parseIgnore recognizes `//lint:ignore name1,name2 reason...`. The
// second return is false for comments that are not lint directives at
// all; a malformed directive returns true with broken set.
func parseIgnore(text string) (ignoreDirective, bool) {
	rest, ok := strings.CutPrefix(text, "//lint:ignore")
	if !ok {
		return ignoreDirective{}, false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return ignoreDirective{
			broken: "malformed //lint:ignore directive: want `//lint:ignore <analyzer>[,<analyzer>] <reason>`",
		}, true
	}
	names := map[string]bool{}
	for _, n := range strings.Split(fields[0], ",") {
		if n != "" {
			names[n] = true
		}
	}
	return ignoreDirective{names: names}, true
}

// WalkFiles applies fn to every node of every file in the pass.
func (p *Pass) WalkFiles(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
