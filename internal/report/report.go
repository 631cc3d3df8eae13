// Package report renders experiment results as aligned text, Markdown, or
// CSV. The cdfexperiments command builds every figure as a Table and picks
// the renderer from its -format flag; EXPERIMENTS.md's tables come from the
// Markdown renderer.
//
// A table is declared once, by the struct type of its rows: FromRows
// makes each field a column, titled and formatted by the field's
// `col:"header[,format]"` tag, as stats.Stats declares its counters with
// `stat` tags.
package report

import (
	"fmt"
	"math"
	"reflect"
	"strings"

	"cdf/internal/stats"
)

// Table is one experiment's result grid.
type Table struct {
	Title   string
	Note    string // one-line annotation (e.g. the paper's number)
	Columns []string
	Rows    [][]string
}

// AddRow appends a row; it must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table %q has %d columns",
			len(cells), t.Title, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// FromRows builds a table with one column per field of the struct type R
// and one row per element of rows. Each field must be tagged
// `col:"header[,format]"`, where format is pct, rel or frac (the Pct, Rel
// and Frac formatters), a printf verb such as %.3f, or empty for an int,
// uint or string field, which prints as it is. With geomean set, a last
// row "geomean" holds the geometric mean of each float column in that
// column's format; a column with no rows or a non-positive value has none
// and reads NA. A field FromRows cannot render is a programmer error and
// panics.
func FromRows[R any](title, note string, rows []R, geomean bool) *Table {
	typ := reflect.TypeFor[R]()
	cols := make([]column, typ.NumField())
	t := &Table{Title: title, Note: note}
	for i := range cols {
		cols[i] = newColumn(typ, typ.Field(i))
		t.Columns = append(t.Columns, cols[i].header)
	}
	floats := make([][]float64, len(cols))
	for _, r := range rows {
		v := reflect.ValueOf(r)
		line := make([]string, len(cols))
		for i, c := range cols {
			line[i] = c.cell(v.Field(i))
			if c.float {
				floats[i] = append(floats[i], v.Field(i).Float())
			}
		}
		t.AddRow(line...)
	}
	if geomean {
		line := make([]string, len(cols))
		line[0] = "geomean"
		for i, c := range cols {
			if !c.float {
				continue
			}
			line[i] = NA
			if g, err := stats.Geomean(floats[i]); err == nil {
				line[i] = c.cell(reflect.ValueOf(g))
			}
		}
		t.AddRow(line...)
	}
	return t
}

// column is one field of a FromRows row type: its header, whether it is
// a float (and so has a geomean), and its cell formatter.
type column struct {
	header string
	float  bool
	cell   func(reflect.Value) string
}

// named are the formats a col tag names rather than spells as a verb.
var named = map[string]func(float64) string{"pct": Pct, "rel": Rel, "frac": Frac}

// newColumn parses field f of typ from its col tag.
func newColumn(typ reflect.Type, f reflect.StructField) column {
	header, format, _ := strings.Cut(f.Tag.Get("col"), ",")
	zero := reflect.Zero(f.Type)
	c := column{header: header, float: zero.CanFloat()}
	switch fn := named[format]; {
	case header == "":
	case fn != nil && c.float:
		c.cell = func(v reflect.Value) string { return fn(v.Float()) }
		return c
	case strings.HasPrefix(format, "%"):
		c.cell = func(v reflect.Value) string { return fmt.Sprintf(format, v.Interface()) }
		return c
	case format == "" && (zero.CanInt() || zero.CanUint() || zero.Kind() == reflect.String):
		c.cell = func(v reflect.Value) string { return fmt.Sprint(v.Interface()) }
		return c
	}
	panic(fmt.Sprintf("report: field %s.%s (%s) needs a `col:\"header[,pct|rel|frac|%%verb]\"` tag that fits its type",
		typ.Name(), f.Name, f.Type))
}

// NA is what the numeric formatters render for a value that does not
// exist — a NaN or infinity leaking out of a partial sweep must read as
// "no data", never as a number.
const NA = "n/a"

// Pct formats a speedup ratio as a signed percentage ("+6.1%").
func Pct(ratio float64) string {
	if bad(ratio) {
		return NA
	}
	return fmt.Sprintf("%+.1f%%", 100*(ratio-1))
}

// Rel formats a relative value ("0.97x").
func Rel(v float64) string {
	if bad(v) {
		return NA
	}
	return fmt.Sprintf("%.2fx", v)
}

// Frac formats a fraction as a percentage ("31.8%").
func Frac(v float64) string {
	if bad(v) {
		return NA
	}
	return fmt.Sprintf("%.1f%%", 100*v)
}

func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// Text renders the table with aligned columns.
func (t *Table) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s ===\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i == 0 {
				fmt.Fprintf(&sb, "%-*s", widths[i], cell)
			} else {
				fmt.Fprintf(&sb, "  %*s", widths[i], cell)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&sb, "(%s)\n", t.Note)
	}
	return sb.String()
}

// Markdown renders a GitHub-flavoured Markdown table.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s\n\n", t.Title)
	sb.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	seps := make([]string, len(t.Columns))
	for i := range seps {
		if i == 0 {
			seps[i] = "---"
		} else {
			seps[i] = "---:"
		}
	}
	sb.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Note != "" {
		fmt.Fprintf(&sb, "\n*%s*\n", t.Note)
	}
	return sb.String()
}

// CSV renders RFC-4180-ish CSV (quotes cells containing commas/quotes).
func (t *Table) CSV() string {
	var sb strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cells[i] = esc(c)
	}
	sb.WriteString(strings.Join(cells, ",") + "\n")
	for _, row := range t.Rows {
		for i, c := range row {
			cells[i] = esc(c)
		}
		sb.WriteString(strings.Join(cells, ",") + "\n")
	}
	return sb.String()
}

// Render picks a format by name: "text", "markdown", or "csv".
func (t *Table) Render(format string) (string, error) {
	switch format {
	case "", "text":
		return t.Text(), nil
	case "markdown", "md":
		return t.Markdown(), nil
	case "csv":
		return t.CSV(), nil
	}
	return "", fmt.Errorf("report: unknown format %q (want text|markdown|csv)", format)
}
