package experiments

import (
	"fmt"
	"io"
	"strconv"

	"btr/internal/core"
	"btr/internal/report"
)

func runTable1(c *Context, w io.Writer) error {
	suite := c.Suite()
	tbl := report.Table{
		Title:   "Table 1 — Benchmarks, input sets and dynamic conditional branches analyzed",
		Headers: []string{"Benchmark", "Input Set", "Dynamic Branches", "Static Sites"},
	}
	for _, in := range suite.Inputs {
		tbl.AddRow(in.Spec.Bench, in.Spec.Input,
			strconv.FormatInt(in.Events, 10), strconv.Itoa(in.Sites))
	}
	tbl.AddRow("total", "", strconv.FormatInt(suite.TotalEvents(), 10), "")
	return tbl.Render(w)
}

func runTable2(c *Context, w io.Writer) error {
	suite := c.Suite()
	d := &suite.Distribution
	tbl := report.Table{
		Title: "Table 2 — Percent of dynamic branches per joint class " +
			"(rows: transition class, cols: taken class; * = misclassified as hard by taken rate alone)",
	}
	const cols = core.NumClasses + 2 // the class label, 11 cells, the total
	tbl.Headers = append(make([]string, 0, cols), "Trans\\Taken")
	tbl.Rows = make([][]string, 0, core.NumClasses+1)
	for t := 0; t < core.NumClasses; t++ {
		tbl.Headers = append(tbl.Headers, strconv.Itoa(t))
	}
	tbl.Headers = append(tbl.Headers, "Total")

	transTotals := d.TransitionMarginal()
	for tr := 0; tr < core.NumClasses; tr++ {
		row := append(make([]string, 0, cols), strconv.Itoa(tr))
		for t := 0; t < core.NumClasses; t++ {
			f := d.Fraction(core.Class(t), core.Class(tr))
			cell := report.Percent(f)
			jc := core.JointClass{Taken: core.Class(t), Transition: core.Class(tr)}
			if core.Misclassified(jc, true) && f > 0 {
				cell += "*"
			}
			row = append(row, cell)
		}
		row = append(row, report.Percent(transTotals[tr]))
		tbl.AddRow(row...)
	}
	takenTotals := d.TakenMarginal()
	totalRow := append(make([]string, 0, cols), "Total")
	for t := 0; t < core.NumClasses; t++ {
		totalRow = append(totalRow, report.Percent(takenTotals[t]))
	}
	totalRow = append(totalRow, report.Percent(1.0))
	tbl.AddRow(totalRow...)
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\nmisclassified mass (PAs view): "+report.Percent(d.MisclassifiedFraction(true))+
		"  (GAs view): "+report.Percent(d.MisclassifiedFraction(false))+"\n")
	return err
}

func runCoverage(c *Context, w io.Writer) error {
	suite := c.Suite()
	cov := core.ComputeCoverage(&suite.Distribution)
	tbl := report.Table{
		Title:   "S1 — §4.2 easy-branch coverage by classification scheme",
		Headers: []string{"Scheme", "Classes", "Coverage", "Paper"},
	}
	tbl.AddRow("taken rate (Chang et al.)", "taken {0,10}", report.Percent(cov.TakenEasy), "62.90%")
	tbl.AddRow("transition rate, GAs", "trans {0,1}", report.Percent(cov.TransitionEasyGAs), "71.62%")
	tbl.AddRow("transition rate, PAs", "trans {0,1,9,10}", report.Percent(cov.TransitionEasyPAs), "72.19%")
	tbl.AddRow("missed by taken (GAs)", "delta", report.Percent(cov.MissedGAs), "8.72%")
	tbl.AddRow("missed by taken (PAs)", "delta", report.Percent(cov.MissedPAs), "9.29%")
	if err := tbl.Render(w); err != nil {
		return err
	}
	improvement := 0.0
	if cov.TakenEasy > 0 {
		improvement = cov.MissedPAs / cov.TakenEasy
	}
	_, err := fmt.Fprintf(w,
		"\nrelative classification improvement (PAs): %s of the taken-rate coverage (paper: ~15%%)\n",
		report.Percent(improvement))
	return err
}
