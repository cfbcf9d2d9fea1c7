package report

import (
	"strings"
	"testing"
)

func TestBarChartRendering(t *testing.T) {
	b := NewBarChart("Speedups", "x")
	b.Width = 10
	b.Add("baseline", 1)
	b.Add("optimized", 2)
	out := b.String()
	if !strings.Contains(out, "Speedups") {
		t.Errorf("title missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// The max value fills the width; the half value fills half.
	if !strings.Contains(lines[2], strings.Repeat("#", 10)) {
		t.Errorf("max bar not full width: %q", lines[2])
	}
	if !strings.Contains(lines[1], "#####") || strings.Contains(lines[1], "######") {
		t.Errorf("half bar wrong: %q", lines[1])
	}
	if !strings.Contains(lines[1], "1x") || !strings.Contains(lines[2], "2x") {
		t.Errorf("values/units missing:\n%s", out)
	}
}

func TestBarChartEmptyAndZero(t *testing.T) {
	b := NewBarChart("", "")
	if len(b.values) != 0 || b.String() != "" {
		t.Fatalf("empty chart rendered %q", b.String())
	}
	b.Add("z", 0)
	if !strings.Contains(b.String(), "z") {
		t.Fatalf("zero-value bar missing")
	}
}

func TestBarChartRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("negative bar accepted")
		}
	}()
	NewBarChart("t", "").Add("bad", -1)
}

func TestBarsFromTable(t *testing.T) {
	tb := New("Fig", "Workload", "Speedup")
	tb.AddRow("CoMD", "2.031")
	tb.AddRow("CFD", "1.997")
	b, err := BarsFromTable(tb, 0, 1, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.values) != 2 {
		t.Fatalf("bars = %d", len(b.values))
	}
	if !strings.Contains(b.String(), "CoMD") {
		t.Fatalf("labels lost:\n%s", b.String())
	}
	// Bad column indices and non-numeric cells error.
	if _, err := BarsFromTable(tb, 0, 9, ""); err == nil {
		t.Errorf("out-of-range column accepted")
	}
	tb.AddRow("junk", "not-a-number")
	if _, err := BarsFromTable(tb, 0, 1, ""); err == nil {
		t.Errorf("non-numeric cell accepted")
	}
}
