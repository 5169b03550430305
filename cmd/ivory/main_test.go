package main

import (
	"flag"
	"testing"

	"ivory"
)

// TestSpecFlagsObjective checks that -objective takes the same vocabulary
// as ivory.ParseObjective: the short CLI forms and the long wire forms.
func TestSpecFlagsObjective(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want ivory.Objective
	}{
		{"eff", ivory.MaxEfficiency},
		{"max-efficiency", ivory.MaxEfficiency},
		{"area", ivory.MinArea},
		{"min-area", ivory.MinArea},
		{"min-noise", ivory.MinNoise},
	} {
		fs := flag.NewFlagSet("explore", flag.ContinueOnError)
		build := specFlags(fs)
		if err := fs.Parse([]string{"-objective", tc.arg}); err != nil {
			t.Fatal(err)
		}
		spec, cancel, err := build()
		if err != nil {
			t.Fatalf("-objective %s: %v", tc.arg, err)
		}
		cancel()
		if spec.Objective != tc.want {
			t.Errorf("-objective %s: got %v, want %v", tc.arg, spec.Objective, tc.want)
		}
	}
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	build := specFlags(fs)
	if err := fs.Parse([]string{"-objective", "fastest"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := build(); err == nil {
		t.Error("-objective fastest: expected an error")
	}
}
