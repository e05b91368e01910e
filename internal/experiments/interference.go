package experiments

import (
	"fmt"
	"io"
	"math/bits"

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
	var stays [256]uint64
	for t := core.Class(0); t < core.NumClasses; t++ {
		for tr := core.Class(0); tr < core.NumClasses; tr++ {
			jc := core.JointClass{Taken: t, Transition: tr}
			adv := core.Advise(jc)
			if adv == core.AdviseLongHistory || adv == core.AdviseNonPredictive {
				stays[jc.Flat()] = 1
			}
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
//
// Per chunk, the run marks the staying events in a bitmap. The filtered
// row packs those events into its own chunk columns. The gshare then
// sweeps the chunk through SweepChunkTracked, and the hard misses are
// the popcount of its miss bitmap under the staying bits.
type interferenceRun struct {
	filterEasy bool
	stays      *[256]uint64 // 1 by flat joint class; Unclassified stays out
	table      *core.ClassTable
	g          *bpred.GShare
	tr         *bpred.AliasTracker
	acc        interferenceAccum

	keep, wrong []uint64
	pcs, dirs   []uint64 // the filtered row's packed chunk
}

func (r *interferenceRun) chunk(pcs, dirs []uint64, n int) {
	r.keep = missBitmap(r.keep, n)
	for base := 0; base < n; base += 64 {
		var w uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			w |= r.stays[r.table.Index(pc)] << (uint(j) & 63)
		}
		r.keep[base>>6] = w
	}
	keep := r.keep
	if r.filterEasy {
		pcs, dirs, n = r.pack(pcs, dirs, n)
		keep = nil
	}
	r.wrong = missBitmap(r.wrong, n)
	r.g.SweepChunkTracked(pcs, dirs, n, r.wrong, r.tr)
	if keep == nil {
		// Every packed event stays.
		for _, w := range r.wrong {
			r.acc.hardMisses += int64(bits.OnesCount64(w))
		}
		r.acc.hardEvents += int64(n)
		return
	}
	for i, w := range r.wrong {
		r.acc.hardMisses += int64(bits.OnesCount64(w & keep[i]))
		r.acc.hardEvents += int64(bits.OnesCount64(keep[i]))
	}
}

// pack copies the chunk's staying events, in order, into the run's own
// columns and returns them.
func (r *interferenceRun) pack(pcs, dirs []uint64, n int) ([]uint64, []uint64, int) {
	if cap(r.pcs) < n {
		r.pcs = make([]uint64, n)
	}
	r.dirs = missBitmap(r.dirs, n)
	m := 0
	for w, word := range r.keep {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			r.pcs[m] = pcs[i]
			r.dirs[m>>6] |= dirs[i>>6] >> (uint(i) & 63) & 1 << (uint(m) & 63)
			m++
		}
	}
	return r.pcs[:m], r.dirs, m
}

func (r *interferenceRun) result() interferenceAccum {
	r.acc.alias = r.tr.Stats()
	return r.acc
}

func (r *interferenceRun) release() {
	r.g.Release()
	r.tr.Release()
}
