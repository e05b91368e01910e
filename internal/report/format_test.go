package report

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// formatSeeds are FuzzFormat's seeds and the fixed cases of
// TestFormatMatchesFmt: both zeros, values that round to zero or to one
// unit at 2 and 3 decimals, exact binary ties (0.125 at 2 decimals,
// 0.00125 as a percent), a repeating fraction, a negative value that
// rounds to -0, and values past the integer path (1e21, ±Inf, NaN) or at
// its edges (2^53, subnormals).
var formatSeeds = []float64{
	0, math.Copysign(0, -1), 0.0005, 0.00125, 0.125, 1.0 / 3, -1e-9, 1e21,
	math.NaN(), math.Inf(1), math.Inf(-1),
	0.375, -0.125, 0.9995, 0.99949999999999994, 2.675, 1e-5, 0.45, 0.5,
	1 << 53, 1<<53 - 1, 1<<52 + 0.5, math.SmallestNonzeroFloat64, -math.MaxFloat64,
}

// checkFormat compares Percent, Rate and a heatmap value cell with the
// fmt verbs they replace.
func checkFormat(t *testing.T, v float64) {
	t.Helper()
	if got, want := Percent(v), fmt.Sprintf("%.2f%%", v*100); got != want {
		t.Fatalf("Percent(%v) = %q, fmt gives %q", v, got, want)
	}
	if got, want := Rate(v), fmt.Sprintf("%.3f", v); got != want {
		t.Fatalf("Rate(%v) = %q, fmt gives %q", v, got, want)
	}
	hm := Heatmap{RowNames: []string{"r"}, ColNames: []string{"c"}, Values: [][]float64{{v}}, Lo: 0, Hi: 1, Annotate: true}
	var buf bytes.Buffer
	if err := hm.Render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if got, want := lines[len(lines)-1], "r "+fmt.Sprintf(" %.3f", v); got != want {
		t.Fatalf("heatmap value cell of %v: %q, fmt gives %q", v, got, want)
	}
}

// TestFormatMatchesFmt pins the strconv renderers to the fmt verbs they
// replaced, byte for byte: the seeds, then random values from the
// shapes artifacts hold (rates in [0, 1], near-ties k/1000 ± ulps,
// dyadic ties k/2^n) and raw bit patterns.
func TestFormatMatchesFmt(t *testing.T) {
	for _, v := range formatSeeds {
		checkFormat(t, v)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := float64(r.Intn(200000) - 100000)
		for _, v := range []float64{
			r.Float64(),
			math.Nextafter(k/1000, math.Inf(1)),
			math.Nextafter(k/2000, math.Inf(-1)),
			k / float64(int64(1)<<uint(r.Intn(20))),
			math.Float64frombits(r.Uint64()),
		} {
			checkFormat(t, v)
		}
	}
}

// FuzzFormat is TestFormatMatchesFmt over any float64.
func FuzzFormat(f *testing.F) {
	for _, v := range formatSeeds {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) { checkFormat(t, v) })
}
