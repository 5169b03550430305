package spice

import (
	"strings"
	"testing"
)

// FuzzNetlist feeds arbitrary text to ParseNetlist. Every deck that parses
// must then survive a short fixed-step Tran: it returns 21 samples or an
// error, never a panic. The seed corpus
// (testdata/fuzz/FuzzNetlist, the parser tests' decks) also runs under
// plain `go test`.
func FuzzNetlist(f *testing.F) {
	f.Fuzz(func(t *testing.T, deck string) {
		c, err := ParseNetlist(strings.NewReader(deck))
		if err != nil {
			return
		}
		// The analysis factors a dense dim-by-dim matrix; bound the work
		// per input, not what the code paths see.
		if len(c.nodeName) > 64 {
			return
		}
		tr, err := c.Tran(1e-9, 20e-9)
		if err == nil && (tr == nil || len(tr.Times) != 21) {
			t.Fatalf("Tran returned %+v without an error, want 21 samples", tr)
		}
	})
}
