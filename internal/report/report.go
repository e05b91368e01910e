// Package report renders experiment results as aligned ASCII tables,
// text gray-scale heatmaps (for the paper's colormap figures), and CSV.
// Everything writes through io.Writer so the cmd tools, examples and tests
// share one formatting path. Tables, heatmaps and line series are built
// in one byte slice with strconv and written once; Percent, Rate and the
// heatmap's value cells print exactly what fmt's "%.2f%%" (of v·100),
// "%.3f" and " %.3f" print (TestFormatMatchesFmt, FuzzFormat).
package report

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table with padded columns, in one Write.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	b := make([]byte, 0, 2048) // every artifact's table fits
	b = appendTitle(b, t.Title)
	b = appendRow(b, t.Headers, widths)
	for i, wd := range widths {
		if i > 0 {
			b = append(b, "  "...)
		}
		b = appendRepeat(b, '-', wd)
	}
	b = append(b, '\n')
	for _, row := range t.Rows {
		b = appendRow(b, row, widths)
	}
	_, err := w.Write(b)
	return err
}

// appendRow appends one table line: cells two spaces apart, each but
// the last padded to its column's width.
func appendRow(b []byte, cells []string, widths []int) []byte {
	for i, c := range cells {
		if i > 0 {
			b = append(b, "  "...)
		}
		b = append(b, c...)
		if i < len(cells)-1 {
			b = appendRepeat(b, ' ', widths[i]-len(c))
		}
	}
	return append(b, '\n')
}

// appendTitle appends title and its "=" underline; nothing if empty.
func appendTitle(b []byte, title string) []byte {
	if title == "" {
		return b
	}
	b = append(append(b, title...), '\n')
	return append(appendRepeat(b, '=', len(title)), '\n')
}

func appendRepeat(b []byte, c byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, c)
	}
	return b
}

// appendPadded appends s right-aligned in width runes, as fmt's "%*s".
func appendPadded(b []byte, s string, width int) []byte {
	return append(appendRepeat(b, ' ', width-utf8.RuneCountInString(s)), s...)
}

// RenderCSV writes the table as CSV (no quoting needed for our content,
// but commas in cells are escaped defensively).
func (t *Table) RenderCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		escaped := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				escaped[i] = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			} else {
				escaped[i] = c
			}
		}
		_, err := fmt.Fprintln(w, strings.Join(escaped, ","))
		return err
	}
	if err := writeRow(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// Percent formats a fraction as "12.34%", as fmt's "%.2f%%" of v·100.
func Percent(v float64) string {
	return string(append(appendFixed(make([]byte, 0, 24), v*100, 2), '%'))
}

// Rate formats a miss rate with three decimals, as fmt's "%.3f".
func Rate(v float64) string { return string(appendFixed(make([]byte, 0, 24), v, 3)) }

var pow10 = [...]uint64{1, 10, 100, 1000}

// appendFixed appends v with 1 ≤ prec ≤ 3 decimals, byte for byte as
// strconv.AppendFloat(b, v, 'f', prec, 64) — and so fmt's "%.<prec>f" —
// does. strconv formats a fixed precision through its multiprecision
// decimal; finite values below 2^53 take an exact integer path instead.
// Such a v is mant·2^-s with mant < 2^53 and s ≥ 0, so mant·10^prec
// fits in 63 bits, and shifting it right by s, rounding half to even as
// strconv does, gives v·10^prec correctly rounded.
func appendFixed(b []byte, v float64, prec int) []byte {
	bits := math.Float64bits(v)
	mant, exp := bits&(1<<52-1), int(bits>>52&0x7ff)
	if exp > 1075 { // ≥ 2^53, ±Inf or NaN
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	pow := pow10[prec]
	var q uint64
	if s := uint(1075 - exp); s < 64 { // past 63 bits of shift, q rounds to 0
		x := mant * pow
		q = x >> s
		if rem, half := x&(1<<s-1), uint64(1)<<s>>1; rem > half || rem == half && half != 0 && q&1 == 1 {
			q++
		}
	}
	if bits>>63 != 0 {
		b = append(b, '-')
	}
	b = append(strconv.AppendUint(b, q/pow, 10), '.')
	for p, frac := pow/10, q%pow; p > 0; p /= 10 {
		b = append(b, byte('0'+frac/p%10))
	}
	return b
}

// shades orders characters light to dark for text heatmaps.
const shades = " .:-=+*#%@"

// Shade maps v in [lo, hi] to a gray-scale rune (dark = large), matching
// the paper's "dark areas represent larger miss rates" convention.
func Shade(v, lo, hi float64) byte {
	if hi <= lo {
		return shades[0]
	}
	t := (v - lo) / (hi - lo)
	if !(t >= 0) { // NaN too: int(NaN) would index outside shades
		t = 0
	}
	if t > 1 {
		t = 1
	}
	i := int(t * float64(len(shades)-1))
	return shades[i]
}

// Heatmap renders a matrix as a text colormap with numeric side tables.
type Heatmap struct {
	Title    string
	RowLabel string // e.g. "branch history length"
	ColLabel string // e.g. "taken rate class"
	RowNames []string
	ColNames []string
	Values   [][]float64 // [row][col]
	Lo, Hi   float64     // shading range; Hi <= Lo auto-scales
	Annotate bool        // also print the numeric matrix
}

// Render writes the shaded map and, if Annotate, the numbers, in one
// Write.
func (h *Heatmap) Render(w io.Writer) error {
	lo, hi := h.Lo, h.Hi
	if hi <= lo {
		lo, hi = h.autoRange()
	}
	rowW := 0
	for _, n := range h.RowNames {
		rowW = max(rowW, len(n))
	}
	b := make([]byte, 0, 4096) // the largest artifact heatmap, 17×11 annotated, is 2.1 KB
	b = appendTitle(b, h.Title)
	b = append(b, "cols: "...)
	b = append(b, h.ColLabel...)
	b = append(b, " | rows: "...)
	b = append(b, h.RowLabel...)
	b = append(b, " | shade '"+shades+"' spans ["...)
	b = appendFixed(b, lo, 3)
	b = append(b, ", "...)
	b = appendFixed(b, hi, 3)
	b = append(b, "], darker = higher\n"...)
	b = appendRepeat(b, ' ', rowW+1)
	for _, c := range h.ColNames {
		b = append(appendPadded(b, c, 2), ' ')
	}
	b = append(b, '\n')
	for i, row := range h.Values {
		b = append(appendPadded(b, h.rowName(i), rowW), ' ')
		for _, v := range row {
			s := Shade(v, lo, hi)
			b = append(b, ' ', s, s)
		}
		b = append(b, '\n')
	}
	if h.Annotate {
		b = append(b, "values:\n"...)
		for i, row := range h.Values {
			b = append(appendPadded(b, h.rowName(i), rowW), ' ')
			for _, v := range row {
				b = appendFixed(append(b, ' '), v, 3)
			}
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// rowName labels row i; rows past RowNames are unlabelled.
func (h *Heatmap) rowName(i int) string {
	if i < len(h.RowNames) {
		return h.RowNames[i]
	}
	return ""
}

func (h *Heatmap) autoRange() (lo, hi float64) {
	first := true
	for _, row := range h.Values {
		for _, v := range row {
			if first {
				lo, hi = v, v
				first = false
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

// LineSeries renders several named curves over a shared integer x-axis as
// a table plus a coarse ASCII plot, which is how the line-plot figures
// (9-12) are reproduced in text.
type LineSeries struct {
	Title  string
	XLabel string
	XVals  []int
	Names  []string
	Series [][]float64 // [series][x]
}

// Render writes the numeric table followed by a bar sketch per series.
func (l *LineSeries) Render(w io.Writer) error {
	tbl := Table{Title: l.Title}
	tbl.Headers = append([]string{l.XLabel}, l.Names...)
	for xi, x := range l.XVals {
		row := []string{strconv.Itoa(x)}
		for si := range l.Series {
			row = append(row, Rate(l.Series[si][xi]))
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	// sketch: one row per series, one shaded cell per x
	var lo, hi float64
	first := true
	for _, s := range l.Series {
		for _, v := range s {
			if first {
				lo, hi = v, v
				first = false
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	b := append(make([]byte, 0, 64+len(l.Names)*64), "sketch (darker = higher miss rate, range ["...)
	b = append(appendFixed(b, lo, 3), ", "...)
	b = append(appendFixed(b, hi, 3), "]):\n"...)
	nameW := 0
	for _, n := range l.Names {
		nameW = max(nameW, len(n))
	}
	for si, name := range l.Names {
		b = append(appendPadded(b, name, nameW), ' ')
		for xi := range l.XVals {
			s := Shade(l.Series[si][xi], lo, hi)
			b = append(b, s, s)
		}
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}
