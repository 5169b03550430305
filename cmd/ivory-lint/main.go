// Command ivory-lint runs Ivory's physics-aware static-analysis suite
// (internal/analysis) over the module.
//
// Usage:
//
//	ivory-lint [flags] [packages]
//
// Packages default to ./... and accept plain directories or recursive
// ./dir/... patterns. Exit status is 0 when clean, 1 when any analyzer
// reports a finding, and 2 on usage or load errors.
//
// Findings are suppressed by a comment on the same line or the line
// above:
//
//	//lint:ignore floatcmp comparing against the exact sentinel we stored
//
// The reason is mandatory; a directive without one is itself reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ivory/internal/analysis"
)

// jsonDiagnostic is the -json wire format, one object per finding. The
// field names are stable: CI tooling turns them into annotations.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run())
}

func run() int {
	disable := flag.String("disable", "", "comma-separated analyzer names to skip")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ivory-lint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	all := analysis.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	known := map[string]bool{}
	for _, a := range all {
		known[a.Name] = true
	}
	disabled := map[string]bool{}
	for _, n := range splitList(*disable) {
		if !known[n] {
			fmt.Fprintf(os.Stderr, "ivory-lint: unknown analyzer %q in -disable (have:", n)
			for _, a := range all {
				fmt.Fprintf(os.Stderr, " %s", a.Name)
			}
			fmt.Fprintln(os.Stderr, ")")
			return 2
		}
		disabled[n] = true
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivory-lint:", err)
		return 2
	}
	pkgs, err := analysis.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivory-lint:", err)
		return 2
	}
	runner := &analysis.Runner{Analyzers: all, Disabled: disabled}
	diags, err := runner.Run(pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivory-lint:", err)
		return 2
	}
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		out = append(out, jsonDiagnostic{
			File: pos.Filename, Line: pos.Line, Column: pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "ivory-lint:", err)
			return 2
		}
	} else {
		for _, d := range out {
			fmt.Printf("%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ivory-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
