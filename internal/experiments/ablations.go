package experiments

import (
	"fmt"
	"io"

	"btr/internal/bpred"
	"btr/internal/conf"
	"btr/internal/core"
	"btr/internal/report"
	"btr/internal/sim"
	"btr/internal/stats"
	"btr/internal/trace"
)

// predictorSpec is one predictor constructor. key names the
// constructor and its parameters: rows built from the same spec build
// identical predictors, so a context replays the suite through them
// once (see runPredictorRows) however many tables show them.
type predictorSpec struct {
	key   string
	build func(in *sim.InputResult) bpred.Predictor
}

// predictorRow is one table row: a display name over a constructor.
type predictorRow struct {
	name string
	pred predictorSpec
}

// The constructors A1 and A5 share.
var (
	transitionHybridSpec = predictorSpec{"TransitionHybrid", func(in *sim.InputResult) bpred.Predictor {
		return bpred.NewTransitionHybrid(in.Classes, in.Profiles, bpred.HybridComponents{})
	}}
	gshare17k12Spec = predictorSpec{"gshare(17,k=12)", func(in *sim.InputResult) bpred.Predictor {
		return bpred.NewGShare(bpred.GAsPHTBits, 12)
	}}
)

// predictorTally is one constructor's result over the suite.
type predictorTally struct {
	misses, events int64
	// sizeBits is the budget of the last suite input's instance (a
	// profile-built predictor sizes itself per input). Grid partials
	// are folded in input order, so it does not depend on which task
	// finished last.
	sizeBits int64
}

// runPredictorRows replays every suite input through a freshly built
// predictor per row (built per input from its profile and classes) and
// returns each row's suite-wide tally. The constructors the context
// has not seen yet run as one (constructor × input) grid; results are
// memoised on the context by constructor key.
func runPredictorRows(c *Context, rows []predictorRow) ([]predictorTally, error) {
	c.predMu.Lock()
	var todo []predictorSpec
	for _, r := range rows {
		if _, done := c.predMemo[r.pred.key]; !done {
			todo = append(todo, r.pred)
		}
	}
	c.predMu.Unlock()

	var parts [][]predictorTally
	if len(todo) > 0 {
		var err error
		parts, err = runGrid(c, len(todo), func(row int, in *sim.InputResult) predictorTally {
			p := todo[row].build(in)
			size := p.SizeBits()
			sink := bpred.NewSink(p)
			in.Replay(sink, c.Cfg.Scale)
			return predictorTally{misses: sink.Res.Misses, events: sink.Res.Events, sizeBits: size}
		})
		if err != nil {
			return nil, err
		}
	}

	c.predMu.Lock()
	defer c.predMu.Unlock()
	if c.predMemo == nil {
		c.predMemo = make(map[string]predictorTally)
	}
	for r, spec := range todo {
		var t predictorTally
		for _, p := range parts[r] {
			t.misses += p.misses
			t.events += p.events
			t.sizeBits = p.sizeBits
		}
		c.predMemo[spec.key] = t
	}
	out := make([]predictorTally, len(rows))
	for i, r := range rows {
		out[i] = c.predMemo[r.pred.key]
	}
	return out, nil
}

// renderPredictorTable renders one miss-rate row per predictor, then
// the closing note.
func renderPredictorTable(c *Context, w io.Writer, title string, rows []predictorRow, note string) error {
	tallies, err := runPredictorRows(c, rows)
	if err != nil {
		return err
	}
	tbl := report.Table{Title: title, Headers: []string{"predictor", "miss rate", "state bits"}}
	for i, r := range rows {
		t := tallies[i]
		tbl.AddRow(r.name, report.Rate(stats.Ratio(float64(t.misses), float64(t.events))), fmt.Sprintf("%d", t.sizeBits))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\n%s\n", note)
	return err
}

// runImplicitClassificationAblation compares the interference-reducing
// predictors the paper surveys in §2 — each an *implicit* classification
// scheme — against the explicit profile-guided hybrids, at comparable
// budgets. The paper's argument: these predictors all smuggle in a bias
// or transition signal; classifying openly does at least as well and
// yields reusable information (advice, confidence, history lengths).
func runImplicitClassificationAblation(c *Context, w io.Writer) error {
	rows := []predictorRow{
		{"TransitionHybrid (explicit)", transitionHybridSpec},
		{"BiMode(16,k=12)", predictorSpec{"BiMode(16,15,k=12)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewBiMode(16, 15, 12)
		}}},
		{"YAGS(16,k=12)", predictorSpec{"YAGS(16,14,8,k=12)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewYAGS(16, 14, 8, 12)
		}}},
		{"Filter(32)+gshare(16,k=12)", predictorSpec{"Filter(14,32)+gshare(16,k=12)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewFilter(14, 32, bpred.NewGShare(16, 12))
		}}},
		{"gskew(16,k=12)", predictorSpec{"gskew(16,k=12)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewGSkew(16, 12)
		}}},
		{"gshare(17,k=12) (no scheme)", gshare17k12Spec},
	}
	return renderPredictorTable(c, w, "A5 — Implicit vs explicit classification (suite miss rate)", rows,
		"Bi-Mode/YAGS/Filter/gskew reduce interference via implicit bias or\n"+
			"transition signals (§2); the explicit hybrid uses the same information openly.")
}

func runHybridAblation(c *Context, w io.Writer) error {
	rows := []predictorRow{
		{"TransitionHybrid (§5.4)", transitionHybridSpec},
		{"TakenHybrid (Chang)", predictorSpec{"TakenHybrid", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewTakenHybrid(in.Classes, in.Profiles, bpred.HybridComponents{})
		}}},
		{"DynamicClassHybrid (§6)", predictorSpec{"DynamicClassHybrid(13,64)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewDynamicClassHybrid(13, 64, bpred.HybridComponents{})
		}}},
		{"gshare(17,k=12)", gshare17k12Spec},
		{"PAs(k=8)", predictorSpec{"PAs(k=8)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewPAs(8)
		}}},
		{"GAs(k=10)", predictorSpec{"GAs(k=10)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewGAs(10)
		}}},
		{"Bimodal(17)", predictorSpec{"Bimodal(17)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewBimodal(bpred.GAsPHTBits)
		}}},
		{"Agree(17,k=10)", predictorSpec{"Agree(17,k=10,14)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewAgree(bpred.GAsPHTBits, 10, 14)
		}}},
		{"Tournament(PAs8,gshare10)", predictorSpec{"Tournament(PAs(k=8),gshare(16,k=10),12)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewTournament("Tournament(PAs8,gshare10)",
				bpred.NewPAs(8), bpred.NewGShare(16, 10), 12)
		}}},
		{"StaticBias(profile)", predictorSpec{"StaticBias(profile)", func(in *sim.InputResult) bpred.Predictor {
			bias := make(map[uint64]bool, len(in.Profiles))
			for pc, p := range in.Profiles {
				bias[pc] = p.TakenRate() >= 0.5
			}
			return bpred.NewStaticBias(bias)
		}}},
		{"LastTime(17)", predictorSpec{"LastTime(17)", func(in *sim.InputResult) bpred.Predictor {
			return bpred.NewLastTime(bpred.GAsPHTBits)
		}}},
	}
	return renderPredictorTable(c, w, "A1 — Classification-guided hybrids vs monolithic predictors (suite miss rate)", rows,
		"expected shape: TransitionHybrid <= TakenHybrid <= monolithic at similar budget;\n"+
			"StaticBias and LastTime bracket the easy/hard split the classification exploits.")
}

func runConfidenceAblation(c *Context, w io.Writer) error {
	suite := c.Suite()
	// Expected per-class miss rates for the static estimator come from
	// the suite's own PAs sweep at the joint-optimal history (Fig 13).
	pasJoint, _ := suite.OptimalJoint(sim.KindPAs)

	type entry struct {
		name  string
		make  func(in *sim.InputResult) conf.Estimator
		quads conf.Quadrants
	}
	entries := []*entry{
		{name: "class-static(0.08)", make: func(in *sim.InputResult) conf.Estimator {
			return conf.NewClassStatic(in.Classes, pasJoint, 0.08)
		}},
		{name: "jacobsen-1level", make: func(in *sim.InputResult) conf.Estimator {
			return conf.NewOneLevel(12, 15, 8)
		}},
		{name: "jacobsen-2level", make: func(in *sim.InputResult) conf.Estimator {
			return conf.NewTwoLevel(12, 10, 15, 8)
		}},
	}
	// One row: every estimator rides the same PAs replay of an input.
	parts, err := runGrid(c, 1, func(_ int, in *sim.InputResult) []conf.Quadrants {
		predictor := bpred.NewPAs(8)
		ests := make([]conf.Estimator, len(entries))
		for i, e := range entries {
			ests[i] = e.make(in)
		}
		quads := make([]conf.Quadrants, len(entries))
		sink := trace.SinkFunc(func(pc uint64, taken bool) {
			correct := predictor.Predict(pc) == taken
			predictor.Update(pc, taken)
			for i, est := range ests {
				quads[i].Observe(est.HighConfidence(pc), correct)
				est.Update(pc, correct)
			}
		})
		in.Replay(sink, c.Cfg.Scale)
		return quads
	})
	if err != nil {
		return err
	}
	for _, quads := range parts[0] {
		for i, e := range entries {
			e.quads.Add(quads[i])
		}
	}
	tbl := report.Table{
		Title:   "A2 — Confidence estimation over PAs(k=8) (suite-wide)",
		Headers: []string{"estimator", "SENS (misses caught)", "PVN (low-conf hit rate)", "SPEC"},
	}
	for _, e := range entries {
		tbl.AddRow(e.name,
			report.Percent(e.quads.Sensitivity()),
			report.Percent(e.quads.PredictiveValueNegative()),
			report.Percent(e.quads.Specificity()))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "\nthe class-static estimator needs no accuracy measurement hardware at all (§5.3).")
	return err
}

func runOptimalHistoryAblation(c *Context, w io.Writer) error {
	suite := c.Suite()
	tbl := report.Table{
		Title:   "A3 — Optimal history length per class (the policy §5.1 implies)",
		Headers: []string{"class", "pas k* (taken)", "gas k* (taken)", "pas k* (trans)", "gas k* (trans)"},
	}
	pasT, _ := suite.OptimalHistoryTaken(sim.KindPAs)
	gasT, _ := suite.OptimalHistoryTaken(sim.KindGAs)
	pasR, _ := suite.OptimalHistoryTransition(sim.KindPAs)
	gasR, _ := suite.OptimalHistoryTransition(sim.KindGAs)
	for cl := 0; cl < core.NumClasses; cl++ {
		tbl.AddRow(fmt.Sprintf("%d", cl),
			fmt.Sprintf("%d", pasT[cl]), fmt.Sprintf("%d", gasT[cl]),
			fmt.Sprintf("%d", pasR[cl]), fmt.Sprintf("%d", gasR[cl]))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	// Advice distribution: how many dynamic branches land in each §5
	// resource class.
	var adviceWeight [4]float64
	var total float64
	for _, in := range suite.Inputs {
		for pc, jc := range in.Classes {
			p := in.Profiles[pc]
			if p == nil {
				continue
			}
			adviceWeight[core.Advise(jc)] += float64(p.Execs)
			total += float64(p.Execs)
		}
	}
	adv := report.Table{
		Title:   "Dynamic branch share per §5 resource recommendation",
		Headers: []string{"advice", "share"},
	}
	for a := core.AdviseStatic; a <= core.AdviseNonPredictive; a++ {
		adv.AddRow(a.String(), report.Percent(stats.Ratio(adviceWeight[a], total)))
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return adv.Render(w)
}
