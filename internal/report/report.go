// Package report renders aligned ASCII tables and series for the
// experiment harness (cmd/paperbench and the bench suite).
package report

import (
	"fmt"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with column alignment.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		var total int
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("  note: " + n + "\n")
	}
	return b.String()
}

// F formats a float with the given precision, trimming to a compact form.
func F(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}

// Ratio formats "12.34x" style multipliers.
func Ratio(v float64) string { return fmt.Sprintf("%.2fx", v) }

// Seconds formats a duration with a sensible unit.
func Seconds(v float64) string {
	switch {
	case v >= 1:
		return fmt.Sprintf("%.3gs", v)
	case v >= 1e-3:
		return fmt.Sprintf("%.3gms", v*1e3)
	case v >= 1e-6:
		return fmt.Sprintf("%.3gus", v*1e6)
	default:
		return fmt.Sprintf("%.3gns", v*1e9)
	}
}

// Joules formats energy with a sensible unit.
func Joules(v float64) string {
	switch {
	case v >= 1e3:
		return fmt.Sprintf("%.3gkJ", v/1e3)
	case v >= 1:
		return fmt.Sprintf("%.3gJ", v)
	case v >= 1e-3:
		return fmt.Sprintf("%.3gmJ", v*1e3)
	default:
		return fmt.Sprintf("%.3guJ", v*1e6)
	}
}
