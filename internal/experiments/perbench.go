package experiments

import (
	"fmt"
	"io"
	"strconv"

	"btr/internal/core"
	"btr/internal/report"
	"btr/internal/sim"
	"btr/internal/stats"
)

// runPerBenchmark breaks the suite-level headline numbers down per
// benchmark: easy-branch coverage under both classification schemes, the
// misclassified mass, and PAs/GAs miss rates at a representative history
// length. The paper reports only dynamic-weighted suite aggregates; this
// view shows which programs drive each effect.
func runPerBenchmark(c *Context, w io.Writer) error {
	suite := c.Suite()

	type agg struct {
		dist   core.Distribution
		exec   sim.JointCounts
		missPA sim.JointCounts
		missGA sim.JointCounts
		events int64
		sites  int
	}
	const k = 8 // representative history length for the miss columns
	byBench := make(map[string]*agg)
	var order []string
	for _, in := range suite.Inputs {
		a := byBench[in.Spec.Bench]
		if a == nil {
			a = &agg{}
			byBench[in.Spec.Bench] = a
			order = append(order, in.Spec.Bench)
		}
		a.dist.Add(in.Distribution)
		a.exec.Add(&in.Exec)
		a.missPA.Add(&in.Miss[sim.KindPAs][k])
		a.missGA.Add(&in.Miss[sim.KindGAs][k])
		a.events += in.Events
		a.sites += in.Sites
	}

	tbl := report.Table{
		Title: "X1 — Per-benchmark breakdown (coverage; misclassified mass; miss at k=8)",
		Headers: []string{"benchmark", "events", "sites",
			"taken{0,10}", "trans{0,1}", "misclass(PAs)", "pas(8) miss", "gas(8) miss"},
	}
	for _, bench := range order {
		a := byBench[bench]
		cov := core.ComputeCoverage(&a.dist)
		tbl.AddRow(bench,
			strconv.FormatInt(a.events, 10),
			strconv.Itoa(a.sites),
			report.Percent(cov.TakenEasy),
			report.Percent(cov.TransitionEasyGAs),
			report.Percent(a.dist.MisclassifiedFraction(true)),
			report.Rate(stats.Ratio(float64(a.missPA.Total()), float64(a.exec.Total()))),
			report.Rate(stats.Ratio(float64(a.missGA.Total()), float64(a.exec.Total()))))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "\nsuite aggregates weight each benchmark by its dynamic branch count (Table 1).")
	return err
}
