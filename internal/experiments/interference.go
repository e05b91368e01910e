package experiments

import (
	"fmt"
	"io"

	"btr/internal/bpred"
	"btr/internal/core"
	"btr/internal/report"
	"btr/internal/sim"
	"btr/internal/stats"
)

// runInterferenceAblation measures gshare PHT aliasing twice per input:
// once fed the whole branch stream (the monolithic predictor's life), and
// once fed only the branches the transition classification would actually
// leave in the shared table (everything except static/bias-table traffic).
// The filtered configuration shows both less aliasing and a lower miss
// rate on the very same hard branches — the §5.1 resource argument.
func runInterferenceAblation(c *Context, w io.Writer) error {
	// Which joint classes stay in the shared table under classification?
	var stays [256]bool
	for t := core.Class(0); t < core.NumClasses; t++ {
		for tr := core.Class(0); tr < core.NumClasses; tr++ {
			jc := core.JointClass{Taken: t, Transition: tr}
			adv := core.Advise(jc)
			stays[jc.Flat()] = adv == core.AdviseLongHistory || adv == core.AdviseNonPredictive
		}
	}
	// Row 0 feeds the whole stream, row 1 filters the easy branches out.
	parts, err := runGrid(c, 2, func(row int, in *sim.InputResult) gridRow[interferenceAccum] {
		return &interferenceRun{
			filterEasy: row == 1,
			stays:      &stays,
			table:      in.Table,
			g:          bpred.NewGShare(bpred.GAsPHTBits, 12),
			tr:         bpred.NewAliasTracker(bpred.GAsPHTBits),
		}
	})
	if err != nil {
		return err
	}
	var sums [2]interferenceAccum
	for row, part := range parts {
		for _, p := range part {
			sums[row].alias.Add(p.alias)
			sums[row].hardMisses += p.hardMisses
			sums[row].hardEvents += p.hardEvents
		}
	}
	full, filtered := sums[0], sums[1]

	tbl := report.Table{
		Title:   "A4 — gshare(17,k=12) PHT interference, all branches vs classification-filtered",
		Headers: []string{"configuration", "PHT updates", "aliased", "destructive", "hard-branch miss rate"},
	}
	tbl.AddRow("all branches in PHT",
		fmt.Sprintf("%d", full.alias.Updates),
		report.Percent(full.alias.AliasedRate()),
		report.Percent(full.alias.DestructiveRate()),
		report.Rate(stats.Ratio(float64(full.hardMisses), float64(full.hardEvents))))
	tbl.AddRow("easy branches filtered out (§5.1)",
		fmt.Sprintf("%d", filtered.alias.Updates),
		report.Percent(filtered.alias.AliasedRate()),
		report.Percent(filtered.alias.DestructiveRate()),
		report.Rate(stats.Ratio(float64(filtered.hardMisses), float64(filtered.hardEvents))))
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"\nboth rows score the same hard-branch population (%d dynamic branches);\n"+
			"the difference is what the easy branches' table pressure costs them.\n",
		full.hardEvents)
	return err
}

// interferenceAccum is one A4 row's tally over one input.
type interferenceAccum struct {
	alias      bpred.AliasStats
	hardMisses int64
	hardEvents int64
}

// interferenceRun is one A4 row's kernel over one input. Both rows score
// the SAME population — the hard branches that remain in the shared
// table — so the miss-rate column isolates what the easy branches'
// presence costs them.
type interferenceRun struct {
	filterEasy bool
	stays      *[256]bool // by flat joint class; Unclassified stays out
	table      *core.ClassTable
	g          *bpred.GShare
	tr         *bpred.AliasTracker
	acc        interferenceAccum
}

func (r *interferenceRun) chunk(pcs, dirs []uint64, n int) {
	for i := 0; i < n; i++ {
		pc, taken := pcs[i], dirs[i>>6]&(1<<(uint(i)&63)) != 0
		stays := r.stays[r.table.Index(pc)]
		if r.filterEasy && !stays {
			continue
		}
		r.tr.Observe(r.g.Index(pc), pc, taken)
		if r.g.PredictUpdate(pc, taken) != taken && stays {
			r.acc.hardMisses++
		}
		if stays {
			r.acc.hardEvents++
		}
	}
}

func (r *interferenceRun) result() interferenceAccum {
	r.acc.alias = r.tr.Stats()
	return r.acc
}
