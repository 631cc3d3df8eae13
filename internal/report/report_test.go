package report

import (
	"math"
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		Title:   "Sample",
		Note:    "a note",
		Columns: []string{"benchmark", "CDF", "PRE"},
	}
	t.AddRow("astar", "+11.2%", "+0.0%")
	t.AddRow("geomean", "+7.2%", "+4.2%")
	return t
}

func TestText(t *testing.T) {
	out := sample().Text()
	for _, want := range []string{"=== Sample ===", "benchmark", "astar", "+11.2%", "(a note)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// Columns align: every data line has the same length.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines[1]) != len(lines[2]) || len(lines[2]) != len(lines[3]) {
		t.Fatalf("misaligned:\n%s", out)
	}
}

func TestMarkdown(t *testing.T) {
	out := sample().Markdown()
	for _, want := range []string{
		"## Sample", "| benchmark | CDF | PRE |", "| --- | ---: | ---: |",
		"| astar | +11.2% | +0.0% |", "*a note*",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestCSV(t *testing.T) {
	tb := &Table{Title: "q", Columns: []string{"a", "b"}}
	tb.AddRow(`plain`, `with,comma`)
	tb.AddRow(`with"quote`, "x")
	out := tb.CSV()
	want := "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",x\n"
	if out != want {
		t.Fatalf("csv = %q, want %q", out, want)
	}
}

func TestRender(t *testing.T) {
	tb := sample()
	for _, f := range []string{"", "text", "markdown", "md", "csv"} {
		if _, err := tb.Render(f); err != nil {
			t.Fatalf("Render(%q): %v", f, err)
		}
	}
	if _, err := tb.Render("xml"); err == nil {
		t.Fatal("unknown format should error")
	}
}

func TestAddRowPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong arity")
		}
	}()
	tb := &Table{Title: "x", Columns: []string{"a", "b"}}
	tb.AddRow("only-one")
}

func TestFormatters(t *testing.T) {
	if Pct(1.061) != "+6.1%" || Pct(0.97) != "-3.0%" {
		t.Fatalf("Pct wrong: %q %q", Pct(1.061), Pct(0.97))
	}
	if Rel(0.97) != "0.97x" || Rel(1.284) != "1.28x" {
		t.Fatalf("Rel wrong: %q %q", Rel(0.97), Rel(1.284))
	}
	if Frac(0.318) != "31.8%" {
		t.Fatalf("Frac wrong: %q", Frac(0.318))
	}
}

// TestFormattersGuardNonFinite: NaN/Inf from a partial sweep renders as
// "n/a", never as a number-shaped string.
func TestFormattersGuardNonFinite(t *testing.T) {
	bads := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range bads {
		if got := Pct(v); got != NA {
			t.Errorf("Pct(%v) = %q, want %q", v, got, NA)
		}
		if got := Rel(v); got != NA {
			t.Errorf("Rel(%v) = %q, want %q", v, got, NA)
		}
		if got := Frac(v); got != NA {
			t.Errorf("Frac(%v) = %q, want %q", v, got, NA)
		}
	}
}
