package report

import (
	"math"
	"reflect"
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

// fmtRow has one column of every kind FromRows renders. Its last column
// is a float, so a geomean row that stops short of it shows.
type fmtRow struct {
	Name string  `col:"name"`
	N    int     `col:"n"`
	U    uint64  `col:"u"`
	P    float64 `col:"speedup,pct"`
	R    float64 `col:"ratio,rel"`
	F    float64 `col:"share,frac"`
	V    float64 `col:"ipc,%.3f"`
}

func TestFromRows(t *testing.T) {
	a := fmtRow{"a", -3, 7, 1.21, 0.5, 0.25, 2}
	b := fmtRow{"b", 4, 8, 1.0, 2.0, 0.5, 8}
	zero := b
	zero.R = 0
	for _, tc := range []struct {
		name    string
		rows    []fmtRow
		geomean bool
		want    [][]string
	}{
		{"cells", []fmtRow{a, b}, false, [][]string{
			{"a", "-3", "7", "+21.0%", "0.50x", "25.0%", "2.000"},
			{"b", "4", "8", "+0.0%", "2.00x", "50.0%", "8.000"},
		}},
		{"geomean", []fmtRow{a, b}, true, [][]string{
			{"a", "-3", "7", "+21.0%", "0.50x", "25.0%", "2.000"},
			{"b", "4", "8", "+0.0%", "2.00x", "50.0%", "8.000"},
			{"geomean", "", "", "+10.0%", "1.00x", "35.4%", "4.000"},
		}},
		{"zero in a column", []fmtRow{a, zero}, true, [][]string{
			{"a", "-3", "7", "+21.0%", "0.50x", "25.0%", "2.000"},
			{"b", "4", "8", "+0.0%", "0.00x", "50.0%", "8.000"},
			{"geomean", "", "", "+10.0%", NA, "35.4%", "4.000"},
		}},
		{"no rows", nil, true, [][]string{
			{"geomean", "", "", NA, NA, NA, NA},
		}},
		{"non-finite", []fmtRow{{P: math.NaN(), R: math.Inf(1), F: math.NaN(), V: 1}}, false, [][]string{
			{"", "0", "0", NA, NA, NA, "1.000"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := FromRows("T", "n", tc.rows, tc.geomean)
			wantCols := []string{"name", "n", "u", "speedup", "ratio", "share", "ipc"}
			if tb.Title != "T" || tb.Note != "n" || !reflect.DeepEqual(tb.Columns, wantCols) {
				t.Fatalf("table %q/%q columns %q, want T/n %q", tb.Title, tb.Note, tb.Columns, wantCols)
			}
			if !reflect.DeepEqual(tb.Rows, tc.want) {
				t.Fatalf("rows\n%q\nwant\n%q", tb.Rows, tc.want)
			}
		})
	}
}

// TestFromRowsPanicsOnUnrenderableField: a row type is its table's only
// declaration, so a field it cannot render is caught at once.
func TestFromRowsPanicsOnUnrenderableField(t *testing.T) {
	type untagged struct {
		Name string `col:"name"`
		X    float64
	}
	type floatNoFormat struct {
		X float64 `col:"x"`
	}
	type pctOnInt struct {
		X int `col:"x,pct"`
	}
	type unknownFormat struct {
		X float64 `col:"x,percent"`
	}
	for name, build := range map[string]func(){
		"untagged":        func() { FromRows("", "", []untagged{{}}, false) },
		"float no format": func() { FromRows("", "", []floatNoFormat{{}}, false) },
		"pct on int":      func() { FromRows("", "", []pctOnInt{{}}, false) },
		"unknown format":  func() { FromRows("", "", []unknownFormat(nil), false) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("FromRows did not panic")
				}
			}()
			build()
		})
	}
}
