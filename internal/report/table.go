// Package report renders result tables in the styles used by the command
// line tools and the experiment log: aligned ASCII, GitHub markdown, CSV
// and JSON rows, with the paper's number formatting (thousands
// separators, fixed decimals, percent signs).
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Align controls column alignment.
type Align int

// Column alignments.
const (
	Left Align = iota
	Right
)

// Table is a simple column-oriented table builder.
type Table struct {
	Title   string
	headers []string
	aligns  []Align
	rows    [][]string
}

// NewTable creates a table with the given column headers, all
// right-aligned except the first.
func NewTable(title string, headers ...string) *Table {
	aligns := make([]Align, len(headers))
	for i := range aligns {
		if i > 0 {
			aligns[i] = Right
		}
	}
	return &Table{Title: title, headers: headers, aligns: aligns}
}

// SetAlign overrides one column's alignment.  Out-of-range columns are
// ignored.
func (t *Table) SetAlign(col int, a Align) {
	if col >= 0 && col < len(t.aligns) {
		t.aligns[col] = a
	}
}

// AddRow appends a row; short rows are padded with empty cells and long
// rows truncated to the header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// widths computes per-column display widths in runes, so cells with
// multi-byte characters (±, ×) still align.
func (t *Table) widths() []int {
	w := make([]int, len(t.headers))
	for i, h := range t.headers {
		w[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); n > w[i] {
				w[i] = n
			}
		}
	}
	return w
}

// pad aligns s into a field of width w runes.
func pad(s string, w int, a Align) string {
	fill := w - utf8.RuneCountInString(s)
	if fill < 0 {
		fill = 0
	}
	if a == Right {
		return strings.Repeat(" ", fill) + s
	}
	return s + strings.Repeat(" ", fill)
}

// WriteASCII renders the table with box-drawing rules to w.
func (t *Table) WriteASCII(w io.Writer) error {
	widths := t.widths()
	line := func(l, m, r string) string {
		parts := make([]string, len(widths))
		for i, cw := range widths {
			parts[i] = strings.Repeat("-", cw+2)
		}
		return l + strings.Join(parts, m) + r
	}
	if t.Title != "" {
		if _, err := fmt.Fprintln(w, t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, line("+", "+", "+")); err != nil {
		return err
	}
	cells := make([]string, len(t.headers))
	for i, h := range t.headers {
		cells[i] = pad(h, widths[i], Left)
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, line("+", "+", "+")); err != nil {
		return err
	}
	for _, row := range t.rows {
		for i, c := range row {
			cells[i] = pad(c, widths[i], t.aligns[i])
		}
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, line("+", "+", "+"))
	return err
}

// WriteMarkdown renders the table as GitHub-flavoured markdown.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "**%s**\n\n", t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.headers, " | ")); err != nil {
		return err
	}
	seps := make([]string, len(t.headers))
	for i, a := range t.aligns {
		if a == Right {
			seps[i] = "---:"
		} else {
			seps[i] = ":---"
		}
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | ")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as RFC-4180 CSV (quoting cells containing
// commas, quotes or newlines).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			out[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := writeRow(t.headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the table as one JSON document: the title, the column
// list in display order, and one object per row keyed by column header.
// This is the machine-readable surface for the benchmark-trajectory
// scripts, so the layout is stable: rows are emitted in insertion order
// and object keys are the exact header strings.
func (t *Table) WriteJSON(w io.Writer) error {
	rows := make([]map[string]string, len(t.rows))
	for i, row := range t.rows {
		obj := make(map[string]string, len(t.headers))
		for j, h := range t.headers {
			obj[h] = row[j]
		}
		rows[i] = obj
	}
	doc := struct {
		Title   string              `json:"title,omitempty"`
		Columns []string            `json:"columns"`
		Rows    []map[string]string `json:"rows"`
	}{Title: t.Title, Columns: t.headers, Rows: rows}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// writerFor returns the renderer of the named format.
func writerFor(format string) (func(*Table, io.Writer) error, error) {
	switch format {
	case "ascii", "":
		return (*Table).WriteASCII, nil
	case "markdown", "md":
		return (*Table).WriteMarkdown, nil
	case "csv":
		return (*Table).WriteCSV, nil
	case "json":
		return (*Table).WriteJSON, nil
	default:
		return nil, fmt.Errorf("report: unknown format %q (want ascii, markdown, csv or json)", format)
	}
}

// CheckFormat reports whether Render accepts the format name, so a command
// can reject a bad -format before it computes anything.
func CheckFormat(format string) error {
	_, err := writerFor(format)
	return err
}

// Render returns the table in the named format: "ascii", "markdown",
// "csv" or "json".
func (t *Table) Render(format string) (string, error) {
	write, err := writerFor(format)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := write(t, &sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}
