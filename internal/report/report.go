// Package report renders experiment output: aligned text tables for the
// console and CSV files for each reproduced figure's data series.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/reprolab/wrsn-csa/internal/metrics"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept, short rows
// are padded when rendered.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row of formatted values: strings pass through, float64
// render with %.4g, ints with %d, everything else with %v.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = strconv.FormatFloat(v, 'g', 4, 64)
		case int:
			row[i] = strconv.Itoa(v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.Headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	// Widths count runes, not bytes, so a cell such as "—" pads like
	// one character.
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			widths[i] = max(widths[i], utf8.RuneCountInString(c))
		}
	}
	measure(t.Headers)
	for _, r := range t.rows {
		measure(r)
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell)))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total+2*(cols-1)))
	sb.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	// Render to a strings.Builder never fails.
	_ = t.Render(&sb)
	return sb.String()
}

// WriteCSV writes one or more series sharing an x-axis as CSV: a header of
// xName plus one column per series label, then one row per x value. Series
// of unequal length leave blanks past their end; series with mismatched x
// values against the first series return an error.
func WriteCSV(w io.Writer, xName string, series ...*metrics.Series) error {
	if len(series) == 0 {
		return fmt.Errorf("report: no series to write")
	}
	var sb strings.Builder
	sb.WriteString(csvEscape(xName))
	for _, s := range series {
		sb.WriteByte(',')
		sb.WriteString(csvEscape(s.Label))
	}
	sb.WriteByte('\n')
	n := 0
	for _, s := range series {
		if s.Len() > n {
			n = s.Len()
		}
	}
	for i := 0; i < n; i++ {
		var x float64
		switch {
		case i < series[0].Len():
			x = series[0].X[i]
		default:
			// Use any series that still has points for the x value.
			for _, s := range series {
				if i < s.Len() {
					x = s.X[i]
					break
				}
			}
		}
		sb.WriteString(strconv.FormatFloat(x, 'g', 8, 64))
		for _, s := range series {
			sb.WriteByte(',')
			if i < s.Len() {
				if s.X[i] != x && s == series[0] {
					return fmt.Errorf("report: series %q x[%d]=%v disagrees with %v", s.Label, i, s.X[i], x)
				}
				sb.WriteString(strconv.FormatFloat(s.Y[i], 'g', 8, 64))
			}
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
