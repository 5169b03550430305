package analysis

import (
	"go/ast"
	"strings"
	"unicode"
)

// unitSuffixPackages lists the import-path suffixes of the packages whose
// exported float64 API surface must carry unit markers.
var unitSuffixPackages = []string{
	"internal/tech",
	"internal/sc",
	"internal/buck",
	"internal/ldo",
}

// unitWords is the allowlist of unit-bearing name tokens (matched
// case-insensitively against CamelCase tokens of the name).
var unitWords = map[string]bool{
	// frequencies
	"hz": true, "khz": true, "mhz": true, "ghz": true,
	// voltages / currents
	"mv": true, "uv": true, "a": true, "ma": true, "ua": true,
	// impedances
	"ohm": true, "mohm": true, "kohm": true,
	// capacitance / inductance
	"pf": true, "nf": true, "uf": true, "ff": true, "nh": true, "uh": true, "ph": true,
	// power / energy
	"mw": true, "uw": true, "nw": true, "joule": true,
	// times
	"ns": true, "us": true, "ps": true, "ms": true, "sec": true, "seconds": true,
	// geometry
	"m2": true, "mm2": true, "um2": true, "um": true, "nm": true, "mm": true, "m": true,
	"width": true, "farad": true, "volt": true, "amp": true, "watt": true, "henry": true,
	// named rails: Vdd is volts by construction
	"vdd": true,
	// dimensionless by convention
	"eff": true, "efficiency": true, "duty": true, "ratio": true, "factor": true,
	"pct": true, "percent": true, "gain": true, "db": true, "multiplier": true,
}

// unitSymbols are the single-letter electrical quantity symbols accepted
// as CamelCase tokens (VIn, CTotal, GHigh, IMax, LEff, ...): the
// codebase's established prefix convention.
var unitSymbols = map[string]bool{
	"V": true, "I": true, "C": true, "G": true, "L": true, "R": true,
	"F": true, "H": true, "W": true, "P": true, "Q": true, "T": true, "E": true,
	"J": true,
}

// leadSymbols extends the same convention to all-lowercase parameter
// names ("fsw", "vout", "iload"). 'a' is deliberately absent so that
// "area" does not pass as amperes.
var leadSymbols = map[byte]bool{
	'v': true, 'i': true, 'c': true, 'g': true, 'l': true, 'r': true,
	'f': true, 'h': true, 'w': true, 'p': true, 'q': true, 't': true,
}

// UnitSuffix flags exported float64 struct fields and parameters of
// exported functions in the device/model packages whose names carry no
// unit information.
//
// Ivory mixes volts, hertz, farads, ohms, watts, and square metres in
// adjacent fields; the BAG-style generator bugs the paper's domain is
// littered with come precisely from unit-ambiguous parameters. A float64
// name must either contain a unit token (Hz, Ohm, M2, Eff, ...) or start
// with a quantity-symbol letter (VIn, CTotal, fsw, iLoad). Names that
// are genuinely dimensionless join unitWords or carry a
// //lint:ignore unitsuffix comment.
var UnitSuffix = &Analyzer{
	Name: "unitsuffix",
	Doc:  "flag exported float64 fields/params without a unit-bearing name token",
	Run:  runUnitSuffix,
}

func runUnitSuffix(pass *Pass) error {
	if !pathMatches(pass.Pkg.Path(), unitSuffixPackages) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || pass.InTestFile(ts.Pos()) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						if !IsFloat(pass.TypeOf(fld.Type)) {
							continue
						}
						for _, name := range fld.Names {
							if name.IsExported() && !hasUnitToken(name.Name) {
								pass.Reportf(name.Pos(),
									"exported float64 field %s.%s carries no unit in its name; add a unit token or a quantity-symbol prefix",
									ts.Name.Name, name.Name)
							}
						}
					}
				}
			case *ast.FuncDecl:
				if !d.Name.IsExported() || pass.InTestFile(d.Pos()) {
					continue
				}
				for _, fld := range d.Type.Params.List {
					if !IsFloat(pass.TypeOf(fld.Type)) {
						continue
					}
					for _, name := range fld.Names {
						if !hasUnitToken(name.Name) {
							pass.Reportf(name.Pos(),
								"float64 parameter %s of exported %s carries no unit in its name; add a unit token or a quantity-symbol prefix",
								name.Name, d.Name.Name)
						}
					}
				}
			}
		}
	}
	return nil
}

// hasUnitToken reports whether any CamelCase token of name is a known
// unit word or quantity symbol.
func hasUnitToken(name string) bool {
	toks := camelTokens(name)
	for i, t := range toks {
		if unitWords[strings.ToLower(t)] {
			return true
		}
		if len(t) == 1 && unitSymbols[t] {
			return true
		}
		// Leading lowercase quantity-symbol letter: the parameter
		// convention used throughout the codebase (iLoad, vLo, fsw, l0).
		if i == 0 && len(t) == 1 && leadSymbols[t[0]] {
			return true
		}
	}
	// All-lowercase compounds ("fsw", "vout", "iload") pass on a leading
	// quantity-symbol letter.
	if len(toks) == 1 && len(name) > 1 && name == strings.ToLower(name) && leadSymbols[name[0]] {
		return true
	}
	return false
}

// camelTokens splits a Go identifier into CamelCase tokens; digits split
// off into their own tokens ("l0" -> ["l", "0"], "AreaMM2" -> ["Area",
// "MM", "2"] ... with the run-of-caps rule "MM2" -> ["MM2"] kept whole).
func camelTokens(name string) []string {
	var toks []string
	runes := []rune(name)
	start := 0
	for i := 1; i <= len(runes); i++ {
		if i == len(runes) {
			toks = append(toks, string(runes[start:i]))
			break
		}
		prev, cur := runes[i-1], runes[i]
		boundary := false
		switch {
		case unicode.IsDigit(cur) != unicode.IsDigit(prev):
			// letter<->digit transition stays attached when the letter run
			// is upper-case (unit tokens like M2, MM2); splits otherwise.
			boundary = !unicode.IsUpper(prev) && !unicode.IsDigit(prev)
		case unicode.IsUpper(cur) && !unicode.IsUpper(prev):
			boundary = true
		case unicode.IsUpper(prev) && unicode.IsUpper(cur) && i+1 < len(runes) && unicode.IsLower(runes[i+1]):
			// "ABCd" -> "AB" + "Cd"
			boundary = true
		}
		if boundary {
			toks = append(toks, string(runes[start:i]))
			start = i
		}
	}
	return toks
}
