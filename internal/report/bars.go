package report

import (
	"fmt"
	"io"
	"strings"
)

// BarChart renders a horizontal ASCII bar chart, the terminal equivalent of
// the paper's bar figures. Values must be non-negative; bars scale to the
// maximum value.
type BarChart struct {
	Title  string
	Unit   string
	Width  int // bar width in characters; 0 means 40
	labels []string
	values []float64
}

// NewBarChart creates an empty chart.
func NewBarChart(title, unit string) *BarChart {
	return &BarChart{Title: title, Unit: unit}
}

// Add appends one bar.
func (b *BarChart) Add(label string, value float64) {
	if value < 0 {
		panic(fmt.Sprintf("report: negative bar value %v for %q", value, label))
	}
	b.labels = append(b.labels, label)
	b.values = append(b.values, value)
}

// WriteText renders the chart.
func (b *BarChart) WriteText(w io.Writer) error {
	width := b.Width
	if width <= 0 {
		width = 40
	}
	var max float64
	labelW := 0
	for i, l := range b.labels {
		if b.values[i] > max {
			max = b.values[i]
		}
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	var sb strings.Builder
	if b.Title != "" {
		fmt.Fprintf(&sb, "%s\n", b.Title)
	}
	for i, l := range b.labels {
		n := 0
		if max > 0 {
			n = int(b.values[i]/max*float64(width) + 0.5)
		}
		fmt.Fprintf(&sb, "%-*s |%s%s %.3g%s\n",
			labelW, l,
			strings.Repeat("#", n), strings.Repeat(" ", width-n),
			b.values[i], b.Unit)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// String renders the text form.
func (b *BarChart) String() string {
	var sb strings.Builder
	if err := b.WriteText(&sb); err != nil {
		return err.Error()
	}
	return sb.String()
}

// BarsFromTable builds a chart from one numeric column of a table, using
// another column for labels. It is how cmd/experiments turns figure tables
// into terminal bar plots.
func BarsFromTable(t *Table, labelCol, valueCol int, unit string) (*BarChart, error) {
	if labelCol < 0 || labelCol >= len(t.Headers) || valueCol < 0 || valueCol >= len(t.Headers) {
		return nil, fmt.Errorf("report: columns %d,%d out of range for %d-column table",
			labelCol, valueCol, len(t.Headers))
	}
	b := NewBarChart(t.Title, unit)
	for _, row := range t.Rows {
		var v float64
		if _, err := fmt.Sscan(row[valueCol], &v); err != nil {
			return nil, fmt.Errorf("report: row %q column %d is not numeric: %w",
				row[labelCol], valueCol, err)
		}
		if v < 0 {
			v = 0
		}
		b.Add(row[labelCol], v)
	}
	return b, nil
}
