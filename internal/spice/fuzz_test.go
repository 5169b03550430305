package spice

import (
	"strings"
	"testing"
)

// FuzzNetlist feeds arbitrary text to ParseNetlist. Every deck that parses
// must then survive each analysis: OP, a two-point AC driven by the first
// independent source, and a short fixed-step Tran each return a result or
// an error, never a panic or a nil result without an error. The seed corpus
// (testdata/fuzz/FuzzNetlist, the parser tests' decks) also runs under
// plain `go test`.
func FuzzNetlist(f *testing.F) {
	f.Fuzz(func(t *testing.T, deck string) {
		c, err := ParseNetlist(strings.NewReader(deck))
		if err != nil {
			return
		}
		// The analyses factor a dense dim-by-dim matrix; bound the work
		// per input, not what the code paths see.
		if len(c.nodeName) > 64 {
			return
		}
		op, err := c.OP()
		if op == nil && err == nil {
			t.Fatal("OP returned neither a result nor an error")
		}
		src := ""
		for _, e := range c.elems {
			if e.kind == kindV || e.kind == kindI {
				src = e.name
				break
			}
		}
		ac, err := c.AC([]float64{1e3, 1e6}, src)
		if ac == nil && err == nil {
			t.Fatal("AC returned neither a result nor an error")
		}
		tr, err := c.Tran(1e-9, 20e-9)
		if err == nil && (tr == nil || len(tr.Times) != 21) {
			t.Fatalf("Tran returned %+v without an error, want 21 samples", tr)
		}
	})
}
