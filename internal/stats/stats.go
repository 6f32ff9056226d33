// Package stats formats the benchmark harness's result tables.
package stats

import (
	"fmt"
	"strings"
)

// Table renders rows as an aligned text table with the given header.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with column names.
func NewTable(cols ...string) *Table { return &Table{header: cols} }

// AddRow appends a row; cells beyond the header width panic.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.header) {
		panic(fmt.Sprintf("stats: row has %d cells, table has %d columns", len(cells), len(t.header)))
	}
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// US formats a microsecond value.
func US(us float64) string { return fmt.Sprintf("%.3f", us) }

// MS formats a microsecond value as milliseconds.
func MS(us float64) string { return fmt.Sprintf("%.2f", us/1000) }
