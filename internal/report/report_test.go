package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableASCII(t *testing.T) {
	tb := New("Demo", "name", "value")
	if err := tb.AddRow("alpha", "1.100"); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRow("a-much-longer-name", "2"); err != nil {
		t.Fatal(err)
	}
	tb.AddNote("seed %d", 42)
	var buf bytes.Buffer
	if err := tb.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== Demo ==", "name", "value", "alpha", "a-much-longer-name", "note: seed 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns align: "value" header starts at the same offset as "1.100".
	lines := strings.Split(out, "\n")
	head, row := lines[1], lines[3]
	if strings.Index(head, "value") != strings.Index(row, "1.100") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableRowMismatch(t *testing.T) {
	tb := New("x", "a", "b")
	if err := tb.AddRow("only-one"); err == nil {
		t.Error("expected error for cell-count mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow should panic on mismatch")
		}
	}()
	tb.MustAddRow("only-one")
}

func TestTableEmptyColumns(t *testing.T) {
	tb := &Table{}
	if err := tb.WriteASCII(&bytes.Buffer{}); err == nil {
		t.Error("expected error for empty table")
	}
}

func TestTableCSV(t *testing.T) {
	tb := New("t", "a", "b")
	tb.MustAddRow("1", "2")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a,b\n1,2\n" {
		t.Errorf("CSV = %q", buf.String())
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456) != "1.235" {
		t.Errorf("F = %s", F(1.23456))
	}
	if F(math.NaN()) != "n/a" || F1(math.NaN()) != "n/a" || G(math.NaN()) != "n/a" {
		t.Error("NaN should render as n/a")
	}
	if F1(2.78) != "2.8" {
		t.Errorf("F1 = %s", F1(2.78))
	}
	if G(1988) != "1988" {
		t.Errorf("G = %s", G(1988))
	}
	if I(42) != "42" {
		t.Errorf("I = %s", I(42))
	}
}

// TestFormattersNeverPrintNegativeZero: a value that rounds to zero
// prints as zero, whichever side of it the rounding noise fell; a value
// that does not keeps its sign.
func TestFormattersNeverPrintNegativeZero(t *testing.T) {
	for _, c := range []struct {
		v     float64
		f, f1 string
	}{
		{math.Copysign(0, -1), "0.000", "0.0"},
		{-1e-17, "0.000", "0.0"},
		{-0.0004, "0.000", "0.0"},
		{-0.0006, "-0.001", "0.0"},
		{-0.04, "-0.040", "0.0"},
		{-0.06, "-0.060", "-0.1"},
		{-12.5, "-12.500", "-12.5"},
		{1e-17, "0.000", "0.0"},
		{math.Inf(-1), "-Inf", "-Inf"},
	} {
		if got := F(c.v); got != c.f {
			t.Errorf("F(%v) = %q, want %q", c.v, got, c.f)
		}
		if got := F1(c.v); got != c.f1 {
			t.Errorf("F1(%v) = %q, want %q", c.v, got, c.f1)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := New("Md", "a", "b")
	tb.MustAddRow("1", "x|y")
	tb.AddNote("careful")
	var buf bytes.Buffer
	if err := tb.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"#### Md", "| a | b |", "|---|---|", `x\|y`, "*careful*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	empty := &Table{}
	if err := empty.WriteMarkdown(&buf); err == nil {
		t.Error("expected error for empty table")
	}
}
