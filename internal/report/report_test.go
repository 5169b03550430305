package report

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

type row struct {
	name string
	v    float64
	d    time.Duration
	ok   bool
}

// testTable has a text-only column (note), a CSV-only column (d_s), a
// scaled column with a non-ASCII header and an absent cell where ok is
// false.
var testTable = Table[row]{Name: "data", Columns: []Column[row]{
	{Text: "name", CSV: "name", Value: func(r row) any { return r.name }},
	{Text: "v(mΩ)", CSV: "v_ohm", Value: func(r row) any { return r.v }, Absent: func(r row) bool { return !r.ok }, Scale: 1e3, Verb: "%.1fm"},
	{Text: "t", Value: func(r row) any { return r.d }},
	{CSV: "d_s", Value: func(r row) any { return r.d }},
	{Text: "note", Value: func(r row) any { return len(r.name) }},
}}

var testRows = []row{
	{name: "a", v: 0.1 / 3, d: 1500 * time.Microsecond, ok: true},
	{name: "b", v: 2, d: 2 * time.Second},
}

func readCSV(t *testing.T, w *Writer, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(w.Dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestTableText: columns are as wide as their widest cell in runes (the
// Ω header is five), absent cells print "-", and no line ends in spaces.
func TestTableText(t *testing.T) {
	want := "" +
		"name  v(mΩ)  t      note\n" +
		"a     33.3m  1.5ms  1\n" +
		"b     -      2s     1\n"
	if got := testTable.Text(testRows); got != want {
		t.Errorf("text table:\n%q\nwant\n%q", got, want)
	}
}

// TestTableCSV: CSV cells hold unscaled floats in their shortest exact
// form and durations in seconds, and absent cells are empty.
func TestTableCSV(t *testing.T) {
	w := NewWriter(t.TempDir())
	if err := testTable.WriteCSV(w, testRows); err != nil {
		t.Fatal(err)
	}
	want := "name,v_ohm,d_s\n" +
		"a,0.03333333333333333,0.0015\n" +
		"b,,2\n"
	if got := readCSV(t, w, "data.csv"); got != want {
		t.Errorf("data.csv:\n%q\nwant\n%q", got, want)
	}
	if len(w.Written) != 1 || filepath.Base(w.Written[0]) != "data.csv" {
		t.Errorf("written paths: %v", w.Written)
	}
}

// TestCSVRoundTrip: every float a CSV holds parses back to the same bits.
func TestCSVRoundTrip(t *testing.T) {
	vals := []float64{0, 1, -4, 3.5, 0.1 + 0.2, 1.0 / 3, math.Pi * 1e-12, 6.02214076e23, math.SmallestNonzeroFloat64, math.MaxFloat64}
	tbl := Table[float64]{Name: "floats", Columns: []Column[float64]{
		{CSV: "v", Value: func(v float64) any { return v }},
	}}
	w := NewWriter(t.TempDir())
	if err := tbl.WriteCSV(w, vals); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(readCSV(t, w, "floats.csv"))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(vals)+1 || recs[0][0] != "v" {
		t.Fatalf("floats.csv: %q", recs)
	}
	for i, v := range vals {
		got, err := strconv.ParseFloat(recs[i+1][0], 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("%v wrote %q, reads back %v (%v)", v, recs[i+1][0], got, err)
		}
	}
}

// TestCSVStringsEscaping: a cell with a comma or a quote is quoted, its
// quotes doubled; text tables print it as is.
func TestCSVStringsEscaping(t *testing.T) {
	tbl := Table[[2]string]{Name: "x", Columns: []Column[[2]string]{
		{Text: "name", CSV: "name", Value: func(r [2]string) any { return r[0] }},
		{Text: "note", CSV: "note", Value: func(r [2]string) any { return r[1] }},
	}}
	rows := [][2]string{{`has,comma`, `has "quote"`}}
	w := NewWriter(t.TempDir())
	if err := tbl.WriteCSV(w, rows); err != nil {
		t.Fatal(err)
	}
	if got, want := readCSV(t, w, "x.csv"), "name,note\n"+`"has,comma","has ""quote"""`+"\n"; got != want {
		t.Errorf("x.csv = %q, want %q", got, want)
	}
	if got, want := tbl.Text(rows), "name       note\nhas,comma  has \"quote\"\n"; got != want {
		t.Errorf("text = %q, want %q", got, want)
	}
}

// TestCSVErrors: a writer without a directory fails, and so does a row
// whose width does not match its header.
func TestCSVErrors(t *testing.T) {
	w := &Writer{}
	if err := testTable.WriteCSV(w, testRows); err == nil {
		t.Error("missing directory must fail")
	}
	w = NewWriter(t.TempDir())
	if err := w.write("x.csv", []string{"a", "b"}, [][]string{{"1"}}); err == nil {
		t.Error("a row narrower than its header must fail")
	}
	if err := w.write("x.csv", []string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Error("a row wider than its header must fail")
	}
	if len(w.Written) != 0 {
		t.Errorf("failed writes recorded %v", w.Written)
	}
}
