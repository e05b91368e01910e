package experiments

import (
	"fmt"
	"io"

	"btr/internal/bpred"
	"btr/internal/core"
	"btr/internal/report"
	"btr/internal/sim"
	"btr/internal/stats"
	"btr/internal/trace"
)

// runInterferenceAblation measures gshare PHT aliasing twice per input:
// once fed the whole branch stream (the monolithic predictor's life), and
// once fed only the branches the transition classification would actually
// leave in the shared table (everything except static/bias-table traffic).
// The filtered configuration shows both less aliasing and a lower miss
// rate on the very same hard branches — the §5.1 resource argument.
func runInterferenceAblation(c *Context, w io.Writer) error {
	type accum struct {
		alias      bpred.AliasStats
		hardMisses int64
		hardEvents int64
	}
	// Row 0 feeds the whole stream, row 1 filters the easy branches out.
	parts, err := runGrid(c, 2, func(row int, in *sim.InputResult) accum {
		filterEasy := row == 1
		// Which branches stay in the shared table under classification?
		stays := make(map[uint64]bool, len(in.Classes))
		for pc, jc := range in.Classes {
			adv := core.Advise(jc)
			stays[pc] = adv == core.AdviseLongHistory || adv == core.AdviseNonPredictive
		}

		// Both cases score the SAME population — the hard branches that
		// remain in the shared table — so the miss-rate column isolates
		// what the easy branches' presence costs them.
		var acc accum
		g := bpred.NewGShare(bpred.GAsPHTBits, 12)
		tr := bpred.NewAliasTracker(bpred.GAsPHTBits)
		sink := trace.SinkFunc(func(pc uint64, taken bool) {
			if filterEasy && !stays[pc] {
				return
			}
			if stays[pc] {
				if g.Predict(pc) != taken {
					acc.hardMisses++
				}
				acc.hardEvents++
			}
			tr.Observe(g.Index(pc), pc, taken)
			g.Update(pc, taken)
		})
		in.Replay(sink, c.Cfg.Scale)
		acc.alias = tr.Stats()
		return acc
	})
	if err != nil {
		return err
	}
	var sums [2]accum
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
