package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name ") || !strings.Contains(lines[0], "value") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("separator %q", lines[1])
	}
	// All rows align to the same width.
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("rows misaligned: %q vs %q", lines[2], lines[3])
	}
}

func TestTableCellCountPanics(t *testing.T) {
	tb := NewTable("one")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong cell count accepted")
		}
	}()
	tb.AddRow("a", "b")
}

func TestFormatHelpers(t *testing.T) {
	if US(1.23456) != "1.235" {
		t.Fatalf("US = %q", US(1.23456))
	}
	if MS(1500) != "1.50" {
		t.Fatalf("MS = %q", MS(1500))
	}
}
