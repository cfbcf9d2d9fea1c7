// Package report renders the experiment harness's output: fixed-width ASCII
// tables for the terminal and CSV for plotting, in the spirit of the
// paper's tables and figure series.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a simple column-oriented table.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// New creates an empty table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// ErrCell is the cell rendered for a value that could not be computed — a
// failed simulation, a degenerate aggregate. Rendering failures as cells
// instead of aborting is what lets one pathological (config, workload) pair
// degrade a single table entry rather than kill a whole experiment sweep.
const ErrCell = "ERR"

// Dash is the cell rendered for a value that is undefined rather than
// failed: a hit rate of a cache that was never accessed, a utilization over
// an empty interval. It is visually distinct from both a computed 0.000
// (real data) and ErrCell (a failure).
const Dash = "—"

// Cell returns v for AddRowF unless err is non-nil, in which case it
// returns ErrCell. It is the one-line adapter between (value, error)
// aggregates (e.g. stats.GeoMean) and table rows.
func Cell(v interface{}, err error) interface{} {
	if err != nil {
		return ErrCell
	}
	return v
}

// AddRow appends a row; cells beyond the header count are rejected.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Headers) {
		panic(fmt.Sprintf("report: row with %d cells in a %d-column table", len(cells), len(t.Headers)))
	}
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddRowF appends a row formatting each value: strings verbatim, floats
// with 3 significant decimals, ints plainly.
func (t *Table) AddRowF(cells ...interface{}) {
	out := make([]string, 0, len(cells))
	for _, c := range cells {
		out = append(out, formatCell(c))
	}
	t.AddRow(out...)
}

func formatCell(c interface{}) string {
	switch v := c.(type) {
	case string:
		return v
	case float64:
		return strconv.FormatFloat(v, 'f', 3, 64)
	case float32:
		return strconv.FormatFloat(float64(v), 'f', 3, 64)
	case int:
		return strconv.Itoa(v)
	case int64:
		return strconv.FormatInt(v, 10)
	case uint64:
		return strconv.FormatUint(v, 10)
	case error:
		return ErrCell
	case fmt.Stringer:
		return v.String()
	default:
		return fmt.Sprint(v)
	}
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (RFC-4180 quoting for commas/quotes).
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, r := range t.Rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the text form.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.WriteText(&b); err != nil {
		return err.Error()
	}
	return b.String()
}
