// Package experiments implements the derived evaluation suite E1–E12
// described in DESIGN.md and EXPERIMENTS.md: one measurable experiment per
// theorem/lemma of the paper. Each experiment returns a Table that
// cmd/experiments prints and the root benchmarks re-emit as testing.B
// metrics; EXPERIMENTS.md records reference output.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	// ID is the experiment identifier (e.g. "E1").
	ID string
	// Title describes the paper claim being measured.
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows hold formatted cells.
	Rows [][]string
	// Notes carries shape observations appended after the table.
	Notes []string
}

// AddRow appends a row, formatting each cell with %v (floats with 4
// significant digits).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Check is a named pass/fail assertion attached to an experiment, used by
// the harness to report whether the paper's qualitative "shape" holds.
type Check struct {
	Name string
	OK   bool
	Info string
}

// Outcome bundles an experiment's table and shape checks.
type Outcome struct {
	Table  *Table
	Checks []Check
}
