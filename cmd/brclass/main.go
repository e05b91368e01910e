// Command brclass profiles a workload (or a stored trace) and prints its
// taken/transition classification: per-class distributions, the joint
// matrix, the §4.2 coverage comparison, and optionally the per-branch
// profile dump.
//
// Usage:
//
//	brclass -bench compress -input bigtest.in [-scale 0.1] [-branches]
//	brclass -trace foo.btr [-branches]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"btr"
	"btr/internal/core"
	"btr/internal/report"
	"btr/internal/trace"
)

func main() {
	bench := flag.String("bench", "", "benchmark name (see brtrace -list)")
	input := flag.String("input", "", "input set name")
	scale := flag.Float64("scale", 0.1, "workload scale")
	tracePath := flag.String("trace", "", "read a BTR2 trace file instead of running a workload")
	branches := flag.Bool("branches", false, "dump per-branch profiles")
	flag.Parse()

	profiler := btr.NewProfiler()
	switch {
	case *tracePath != "":
		h, err := trace.OpenSpillHandle(*tracePath, 0)
		if err != nil {
			fatal(err)
		}
		if _, err := trace.Copy(profiler, h.Source()); err != nil {
			fatal(err)
		}
	case *bench != "" && *input != "":
		spec, err := btr.FindWorkload(*bench, *input)
		if err != nil {
			fatal(err)
		}
		profiler = btr.ProfileWorkload(spec, *scale)
	default:
		fatal(fmt.Errorf("need either -trace or -bench/-input"))
	}

	fmt.Printf("events=%d static sites=%d\n\n", profiler.Events(), profiler.Sites())

	var dist core.Distribution
	dist.AddProfiles(profiler.Profiles())

	taken := dist.TakenMarginal()
	trans := dist.TransitionMarginal()
	tbl := report.Table{
		Title:   "Class distribution (dynamic-weighted)",
		Headers: []string{"class", "taken-rate share", "transition-rate share"},
	}
	for i := 0; i < core.NumClasses; i++ {
		tbl.AddRow(fmt.Sprintf("%d", i), report.Percent(taken[i]), report.Percent(trans[i]))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fatal(err)
	}

	cov := core.ComputeCoverage(&dist)
	fmt.Printf("\ncoverage: taken{0,10}=%s  trans{0,1}=%s  trans{0,1,9,10}=%s  missedGAs=%s missedPAs=%s\n",
		report.Percent(cov.TakenEasy), report.Percent(cov.TransitionEasyGAs),
		report.Percent(cov.TransitionEasyPAs), report.Percent(cov.MissedGAs),
		report.Percent(cov.MissedPAs))

	if !*branches {
		return
	}
	type row struct {
		pc uint64
		p  *btr.Profile
	}
	var rows []row
	for pc, p := range profiler.Profiles() {
		rows = append(rows, row{pc, p})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].p.Execs > rows[j].p.Execs })
	fmt.Println("\nper-branch profiles (hottest first):")
	for _, r := range rows {
		jc := btr.ClassOfProfile(r.p)
		fmt.Printf("  pc=%#x execs=%d taken=%.3f trans=%.3f class=%s advice=%s\n",
			r.pc, r.p.Execs, r.p.TakenRate(), r.p.TransitionRate(), jc, btr.Advise(jc))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "brclass:", err)
	os.Exit(1)
}
