package report

import (
	"strings"
	"testing"
)

func TestTextAlignment(t *testing.T) {
	tb := New("Demo", "name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer-name", "2.5")
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Errorf("title missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title, header, separator, two rows.
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header line wrong: %q", lines[1])
	}
	// Columns aligned: "value" column starts at the same offset everywhere.
	idx := strings.Index(lines[1], "value")
	if lines[3][idx:idx+1] != "1" || lines[4][idx:idx+3] != "2.5" {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestNote(t *testing.T) {
	tb := New("T", "a")
	tb.Note = "paper reports 22.8%"
	tb.AddRow("x")
	if !strings.Contains(tb.String(), "note: paper reports 22.8%") {
		t.Errorf("note missing:\n%s", tb.String())
	}
}

func TestAddRowF(t *testing.T) {
	tb := New("T", "s", "f", "i", "u")
	tb.AddRowF("x", 1.23456, 42, uint64(7))
	row := tb.Rows[0]
	if row[0] != "x" || row[1] != "1.235" || row[2] != "42" || row[3] != "7" {
		t.Fatalf("formatted row = %v", row)
	}
}

func TestRowTooWidePanics(t *testing.T) {
	tb := New("T", "only")
	defer func() {
		if recover() == nil {
			t.Fatalf("wide row did not panic")
		}
	}()
	tb.AddRow("a", "b")
}

func TestShortRowPadded(t *testing.T) {
	tb := New("T", "a", "b")
	tb.AddRow("x")
	if len(tb.Rows[0]) != 2 || tb.Rows[0][1] != "" {
		t.Fatalf("short row not padded: %v", tb.Rows[0])
	}
}

func TestCSVQuoting(t *testing.T) {
	tb := New("T", "name", "desc")
	tb.AddRow("a,b", `say "hi"`)
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "name,desc\n\"a,b\",\"say \"\"hi\"\"\"\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}
