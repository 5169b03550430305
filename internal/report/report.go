// Package report renders experiment results. A Table describes a result's
// rows once: per column, its text and CSV headers, its value, which rows
// leave it absent, and how the text table scales and formats it. The same
// description renders the aligned text table cmd/ivory-exp prints (Text)
// and the plot-ready CSV file, one row per data point (WriteCSV), so the
// two cannot drift apart. CSV floats print in the shortest form that reads
// back exactly.
package report

import (
	"bytes"
	"cmp"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Column is one column of a Table over rows of type R.
type Column[R any] struct {
	// Text and CSV are the column's headers in the text table and in the
	// CSV file. An empty header leaves the column out of that rendering.
	Text, CSV string
	// Value returns the row's cell: a float64, int, string or
	// time.Duration. Any other value renders as fmt's %v.
	Value func(R) any
	// Absent, if set, reports the rows whose cell is absent: "-" in the
	// text table, empty in the CSV.
	Absent func(R) bool
	// Scale multiplies a float64 cell in the text table (0 means 1) and
	// Verb formats it there ("%g" when empty). The CSV holds the unscaled
	// value in its shortest form that reads back exactly. A time.Duration
	// prints as its String in text and as seconds in the CSV.
	Scale float64
	Verb  string
}

// Table describes the rows of one result for both renderings. The rows
// themselves are passed to each renderer, since a text table may show an
// excerpt or a subset of the rows its CSV holds.
type Table[R any] struct {
	// Name is the CSV file name; the .csv suffix is added.
	Name    string
	Columns []Column[R]
}

// Text renders rows as an aligned text table under the text headers.
func (t *Table[R]) Text(rows []R) string {
	return layout(t.cells(rows, func(c Column[R]) string { return c.Text }, Column[R].text))
}

// WriteCSV writes rows to Name.csv in w's directory under the CSV headers.
func (t *Table[R]) WriteCSV(w *Writer, rows []R) error {
	header, cells := t.cells(rows, func(c Column[R]) string { return c.CSV }, Column[R].csv)
	return w.write(t.Name+".csv", header, cells)
}

// cells renders rows in the columns that head names, each cell by cell
// (nil for an absent one).
func (t *Table[R]) cells(rows []R, head func(Column[R]) string, cell func(Column[R], any) string) ([]string, [][]string) {
	var cols []Column[R]
	var header []string
	for _, c := range t.Columns {
		if h := head(c); h != "" {
			cols = append(cols, c)
			header = append(header, h)
		}
	}
	out := make([][]string, len(rows))
	for k, r := range rows {
		out[k] = make([]string, len(cols))
		for i, c := range cols {
			var v any
			if c.Absent == nil || !c.Absent(r) {
				v = c.Value(r)
			}
			out[k][i] = cell(c, v)
		}
	}
	return header, out
}

func (c Column[R]) text(v any) string {
	switch v := v.(type) {
	case nil:
		return "-"
	case float64:
		return fmt.Sprintf(cmp.Or(c.Verb, "%g"), v*cmp.Or(c.Scale, 1))
	case time.Duration:
		return v.String()
	default:
		return fmt.Sprint(v)
	}
}

func (Column[R]) csv(v any) string {
	switch v := v.(type) {
	case nil:
		return ""
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	case time.Duration:
		return strconv.FormatFloat(v.Seconds(), 'g', -1, 64)
	default:
		return fmt.Sprint(v)
	}
}

// layout aligns cells under header, two spaces between columns. Widths
// count runes, and no line ends in spaces.
func layout(header []string, rows [][]string) string {
	rows = append([][]string{header}, rows...)
	widths := make([]int, len(header))
	for _, r := range rows {
		for i, c := range r {
			widths[i] = max(widths[i], utf8.RuneCountInString(c))
		}
	}
	var b strings.Builder
	for _, r := range rows {
		var line strings.Builder
		for i, c := range r {
			if i > 0 {
				line.WriteString("  ")
			}
			line.WriteString(c + strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		b.WriteString(strings.TrimRight(line.String(), " ") + "\n")
	}
	return b.String()
}

// Writer emits CSV files into a directory (created on first use).
type Writer struct {
	// Dir is the output directory.
	Dir string
	// Written collects the paths written, in order.
	Written []string
}

// NewWriter returns a Writer rooted at dir.
func NewWriter(dir string) *Writer { return &Writer{Dir: dir} }

// write writes the CSV file name of rows under header; every row must be
// as wide as the header.
func (w *Writer) write(name string, header []string, rows [][]string) error {
	if w.Dir == "" {
		return fmt.Errorf("report: writer has no directory")
	}
	for _, r := range rows {
		if len(r) != len(header) {
			return fmt.Errorf("report: %s: row width %d != header %d", name, len(r), len(header))
		}
	}
	var b bytes.Buffer
	if err := csv.NewWriter(&b).WriteAll(append([][]string{header}, rows...)); err != nil {
		return fmt.Errorf("report: %s: %w", name, err)
	}
	if err := os.MkdirAll(w.Dir, 0o755); err != nil {
		return fmt.Errorf("report: creating %s: %w", w.Dir, err)
	}
	path := filepath.Join(w.Dir, name)
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return fmt.Errorf("report: writing %s: %w", path, err)
	}
	w.Written = append(w.Written, path)
	return nil
}
