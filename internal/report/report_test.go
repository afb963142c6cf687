package report

import (
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/reprolab/wrsn-csa/internal/metrics"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("beta-long-name", "22")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header = %q", lines[1])
	}
	// All data rows align: the value column starts at the same offset.
	idx1 := strings.Index(lines[3], "1")
	idx2 := strings.Index(lines[4], "22")
	if idx1 != idx2 {
		t.Errorf("columns misaligned: %q vs %q", lines[3], lines[4])
	}
	if tbl.Rows() != 2 {
		t.Errorf("rows = %d", tbl.Rows())
	}
}

// TestTableRenderMultibyte aligns a column holding a multibyte cell:
// "—" pads as one character, so the next column starts at the same
// rune offset on every row.
func TestTableRenderMultibyte(t *testing.T) {
	tbl := NewTable("", "mean", "next")
	tbl.AddRow("—", "x")
	tbl.AddRow("4.5", "y")
	lines := strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")
	col := func(line, s string) int { return utf8.RuneCountInString(line[:strings.Index(line, s)]) }
	if a, b := col(lines[2], "x"), col(lines[3], "y"); a != b {
		t.Errorf("columns misaligned: %q vs %q", lines[2], lines[3])
	}
}

func TestTableAddRowf(t *testing.T) {
	tbl := NewTable("", "a", "b", "c", "d")
	tbl.AddRowf("s", 3.14159, 42, true)
	out := tbl.String()
	for _, want := range []string{"s", "3.142", "42", "true"} {
		if !strings.Contains(out, want) {
			t.Errorf("output %q missing %q", out, want)
		}
	}
}

func TestTableRaggedRows(t *testing.T) {
	tbl := NewTable("t", "a")
	tbl.AddRow("1", "extra", "more")
	tbl.AddRow()
	out := tbl.String()
	if !strings.Contains(out, "extra") {
		t.Error("overlong row truncated")
	}
}

func TestWriteCSV(t *testing.T) {
	s1 := &metrics.Series{Label: "alpha"}
	s1.Append(1, 10)
	s1.Append(2, 20)
	s2 := &metrics.Series{Label: "beta"}
	s2.Append(1, 100)
	s2.Append(2, 200)
	var sb strings.Builder
	if err := WriteCSV(&sb, "x", s1, s2); err != nil {
		t.Fatal(err)
	}
	want := "x,alpha,beta\n1,10,100\n2,20,200\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}

func TestWriteCSVUnequalLengths(t *testing.T) {
	s1 := &metrics.Series{Label: "long"}
	s1.Append(1, 10)
	s1.Append(2, 20)
	s2 := &metrics.Series{Label: "short"}
	s2.Append(1, 100)
	var sb strings.Builder
	if err := WriteCSV(&sb, "x", s1, s2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if lines[2] != "2,20," {
		t.Errorf("short series row = %q", lines[2])
	}
}

func TestWriteCSVEscaping(t *testing.T) {
	s := &metrics.Series{Label: `weird,"label"`}
	s.Append(1, 1)
	var sb strings.Builder
	if err := WriteCSV(&sb, "x", s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"weird,""label"""`) {
		t.Errorf("escaping failed: %q", sb.String())
	}
}

func TestWriteCSVErrors(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, "x"); err == nil {
		t.Error("no series accepted")
	}
}
