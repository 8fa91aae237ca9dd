// Package report renders experiment results as aligned ASCII tables and
// CSV, the textual equivalent of the paper's figures: each experiment
// produces the same rows/series the corresponding table or plot shows.
package report

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is a titled grid of cells with optional footnotes.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// New creates a table.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; the cell count must match the column count.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("report: row has %d cells, table has %d columns",
			len(cells), len(t.Columns))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// MustAddRow is AddRow for construction-time rows that cannot mismatch.
func (t *Table) MustAddRow(cells ...string) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// WriteASCII renders the table with aligned columns.
func (t *Table) WriteASCII(w io.Writer) error {
	if len(t.Columns) == 0 {
		return errors.New("report: table has no columns")
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	total := len(t.Columns)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (title and notes as comment-ish
// leading/trailing rows are omitted; only columns and rows are written).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// F formats a float for table cells: fixed 3 decimals, with NaN rendered
// as "n/a" and a value that rounds to zero as "0.000", whatever its sign.
func F(v float64) string { return fixed(v, 3) }

// F1 formats with 1 decimal, as F does.
func F1(v float64) string { return fixed(v, 1) }

// fixed formats v with prec decimals. A negative value that rounds to
// zero prints unsigned: the sign of rounding noise is not a result.
func fixed(v float64, prec int) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	s := strconv.FormatFloat(v, 'f', prec, 64)
	if s[0] == '-' && strings.Trim(s[1:], "0.") == "" {
		return s[1:]
	}
	return s
}

// G formats a float compactly (shortest representation).
func G(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// I formats an int.
func I(v int) string { return strconv.Itoa(v) }

// WriteMarkdown renders the table as GitHub-flavored markdown, with the
// title as a heading and notes as a trailing list.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if len(t.Columns) == 0 {
		return errors.New("report: table has no columns")
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "#### %s\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, cell := range cells {
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(cell, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	b.WriteString("|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", note)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
