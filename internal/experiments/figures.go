package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"btr/internal/core"
	"btr/internal/report"
	"btr/internal/sim"
)

func classNames() []string {
	names := make([]string, core.NumClasses)
	for i := range names {
		names[i] = strconv.Itoa(i)
	}
	return names
}

func runFig1(c *Context, w io.Writer) error {
	suite := c.Suite()
	marg := suite.Distribution.TakenMarginal()
	return marginalTable(w, "Figure 1 — Percent of dynamic branches per taken rate class", "taken class", marg[:])
}

func runFig2(c *Context, w io.Writer) error {
	suite := c.Suite()
	marg := suite.Distribution.TransitionMarginal()
	return marginalTable(w, "Figure 2 — Percent of dynamic branches per transition rate class", "transition class", marg[:])
}

func marginalTable(w io.Writer, title, label string, marg []float64) error {
	tbl := report.Table{Title: title, Headers: []string{label, "percent of dynamic branches"}}
	for i, v := range marg {
		tbl.AddRow(strconv.Itoa(i), report.Percent(v))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	var sketch strings.Builder // one bar per class, capped at 70 columns
	for i, v := range marg {
		fmt.Fprintf(&sketch, "%2d |%s %s\n", i, strings.Repeat("#", min(int(v*100), 70)), report.Percent(v))
	}
	_, err := io.WriteString(w, sketch.String())
	return err
}

func runFig3(c *Context, w io.Writer) error {
	return optimalFig(c, w, true, "Figure 3 — Miss rates by taken rate class, optimal history length per class")
}

func runFig4(c *Context, w io.Writer) error {
	return optimalFig(c, w, false, "Figure 4 — Miss rates by transition rate class, optimal history length per class")
}

func optimalFig(c *Context, w io.Writer, taken bool, title string) error {
	suite := c.Suite()
	var pasKs, gasKs [core.NumClasses]int
	var pasRates, gasRates [core.NumClasses]float64
	if taken {
		pasKs, pasRates = suite.OptimalHistoryTaken(sim.KindPAs)
		gasKs, gasRates = suite.OptimalHistoryTaken(sim.KindGAs)
	} else {
		pasKs, pasRates = suite.OptimalHistoryTransition(sim.KindPAs)
		gasKs, gasRates = suite.OptimalHistoryTransition(sim.KindGAs)
	}
	tbl := report.Table{Title: title,
		Headers: []string{"class", "pas miss", "pas k*", "gas miss", "gas k*"}}
	for cl := 0; cl < core.NumClasses; cl++ {
		tbl.AddRow(strconv.Itoa(cl),
			report.Rate(pasRates[cl]), strconv.Itoa(pasKs[cl]),
			report.Rate(gasRates[cl]), strconv.Itoa(gasKs[cl]))
	}
	return tbl.Render(w)
}

// heatmapFig renders one of Figures 5-8: class (cols) x history length
// (rows), for one predictor kind and one metric axis.
func heatmapFig(kind sim.Kind, taken bool, title string) func(*Context, io.Writer) error {
	return func(c *Context, w io.Writer) error {
		suite := c.Suite()
		values := make([][]float64, sim.NumHistories)
		rowNames := make([]string, sim.NumHistories)
		for k := 0; k < sim.NumHistories; k++ {
			var rates [core.NumClasses]float64
			if taken {
				rates = suite.MissRateByTaken(kind, k)
			} else {
				rates = suite.MissRateByTransition(kind, k)
			}
			values[k] = append([]float64(nil), rates[:]...)
			rowNames[k] = strconv.Itoa(k)
		}
		colLabel := "taken rate class"
		if !taken {
			colLabel = "transition rate class"
		}
		hm := report.Heatmap{
			Title:    title,
			RowLabel: "branch history length",
			ColLabel: colLabel,
			RowNames: rowNames,
			ColNames: classNames(),
			Values:   values,
			Lo:       0, Hi: 0.5, // the paper's colormaps clamp at 0.5+
			Annotate: true,
		}
		return hm.Render(w)
	}
}

// lineFig renders one of Figures 9-12: curves for classes 0, 1, 9, 10.
func lineFig(kind sim.Kind, taken bool, title, prefix string) func(*Context, io.Writer) error {
	return func(c *Context, w io.Writer) error {
		suite := c.Suite()
		classes := []core.Class{0, 1, 9, 10}
		xs := make([]int, sim.NumHistories)
		for k := range xs {
			xs[k] = k
		}
		ls := report.LineSeries{Title: title, XLabel: "history", XVals: xs}
		for _, cl := range classes {
			var curve []float64
			if taken {
				curve = suite.HistoryCurveTaken(kind, cl)
			} else {
				curve = suite.HistoryCurveTransition(kind, cl)
			}
			ls.Names = append(ls.Names, prefix+" "+strconv.Itoa(int(cl)))
			ls.Series = append(ls.Series, curve)
		}
		return ls.Render(w)
	}
}

// jointFig renders Figure 13 or 14: the 11x11 joint-class miss-rate map
// with each cell at its own optimal history length.
func jointFig(kind sim.Kind, title string) func(*Context, io.Writer) error {
	return func(c *Context, w io.Writer) error {
		suite := c.Suite()
		rates, ks := suite.OptimalJoint(kind)
		values := make([][]float64, core.NumClasses)
		rowNames := make([]string, core.NumClasses)
		for tr := 0; tr < core.NumClasses; tr++ {
			row := make([]float64, core.NumClasses)
			for t := 0; t < core.NumClasses; t++ {
				row[t] = rates[t][tr]
			}
			values[tr] = row
			rowNames[tr] = strconv.Itoa(tr)
		}
		hm := report.Heatmap{
			Title:    title,
			RowLabel: "transition rate class",
			ColLabel: "taken rate class",
			RowNames: rowNames,
			ColNames: classNames(),
			Values:   values,
			Lo:       0, Hi: 0.45,
			Annotate: true,
		}
		if err := hm.Render(w); err != nil {
			return err
		}
		_, err := io.WriteString(w, "\n5/5 cell miss rate: "+report.Rate(rates[5][5])+
			" (paper: worst cell, near 50%), chosen k="+strconv.Itoa(ks[5][5])+"\n")
		return err
	}
}

func runFig15(c *Context, w io.Writer) error {
	suite := c.Suite()
	window := 8
	tbl := report.Table{
		Title: "Figure 15 — Relative distance distribution of class 5/5 branches " +
			"(percent of 5/5 occurrences at each dynamic-branch distance from the previous one)",
	}
	tbl.Headers = []string{"benchmark"}
	for d := 1; d < window; d++ {
		tbl.Headers = append(tbl.Headers, strconv.Itoa(d))
	}
	tbl.Headers = append(tbl.Headers, strconv.Itoa(window)+"+")
	for _, bench := range suite.Benchmarks() {
		h := suite.HardByBench[bench]
		if h == nil || h.Total() == 0 {
			tbl.AddRow(append([]string{bench}, make([]string, window)...)...)
			continue
		}
		fr := h.Fractions()
		row := []string{bench}
		for d := 1; d <= window && d < len(fr); d++ {
			row = append(row, report.Percent(fr[d]))
		}
		tbl.AddRow(row...)
	}
	return tbl.Render(w)
}
