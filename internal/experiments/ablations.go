package experiments

import (
	"fmt"
	"io"
	"math/bits"

	"btr/internal/bpred"
	"btr/internal/conf"
	"btr/internal/core"
	"btr/internal/report"
	"btr/internal/sim"
	"btr/internal/stats"
)

// predictorSpec is one predictor constructor. key names the
// constructor and its parameters: rows built from the same spec build
// identical predictors, so a context runs the suite through them once
// (see runPredictorRows) however many tables show them.
type predictorSpec struct {
	key   string
	build func(in *sim.InputResult) ablationPredictor
	// bank is set for a slot of the suite sweep's own PAs/GAs bank,
	// which has already run every input: the row reads the slot's
	// misses from the suite instead of replaying it.
	bank *bankSlot
}

// bankSlot names one (kind, history length) slot of the bank.
type bankSlot struct {
	kind sim.Kind
	k    int
}

// bankSpec is the row of bank slot (kind, k).
func bankSpec(kind sim.Kind, k int) predictorSpec {
	return predictorSpec{key: fmt.Sprintf("%v(k=%d)", kind, k), bank: &bankSlot{kind, k}}
}

// tally sums the slot's class-attributed misses over the suite's
// inputs; every event is attributed to a class, so the sum is the
// slot's miss count.
func (b *bankSlot) tally(suite *sim.SuiteResult) predictorTally {
	var t predictorTally
	for _, in := range suite.Inputs {
		t.misses += in.Miss[b.kind][b.k].Total()
		t.events += in.Events
	}
	var p ablationPredictor
	if b.kind == sim.KindPAs {
		p = bpred.NewPAs(b.k)
	} else {
		p = bpred.NewGAs(b.k)
	}
	t.sizeBits = p.SizeBits()
	p.Release()
	return t
}

// ablationPredictor is a predictor with its own chunk kernel whose
// tables go back to their pools on Release.
type ablationPredictor interface {
	bpred.Predictor
	bpred.ChunkSweeper
	Release()
}

// predictorRow is one table row: a display name over a constructor.
type predictorRow struct {
	name string
	pred predictorSpec
}

// The constructors A1 and A5 share.
var (
	transitionHybridSpec = predictorSpec{key: "TransitionHybrid", build: func(in *sim.InputResult) ablationPredictor {
		return bpred.NewTransitionHybridTable(in.Table, in.Profiles, bpred.HybridComponents{})
	}}
	gshare17k12Spec = predictorSpec{key: "gshare(17,k=12)", build: func(in *sim.InputResult) ablationPredictor {
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

// runPredictorRows runs every suite input through a freshly built
// predictor per row (built per input from its profile and classes) and
// returns each row's suite-wide tally. The constructors the context
// has not seen yet run as one grid, each input read once for all of
// them; results are memoised on the context by constructor key.
func runPredictorRows(c *Context, rows []predictorRow) ([]predictorTally, error) {
	c.predMu.Lock()
	var todo []predictorSpec
	for _, r := range rows {
		if _, done := c.predMemo[r.pred.key]; !done && r.pred.bank == nil {
			todo = append(todo, r.pred)
		}
	}
	c.predMu.Unlock()

	var parts [][]predictorTally
	if len(todo) > 0 {
		var err error
		parts, err = runGrid(c, len(todo), func(row int, in *sim.InputResult) gridRow[predictorTally] {
			p := todo[row].build(in)
			return &predictorRun{p: p, tally: predictorTally{sizeBits: p.SizeBits()}}
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
		if r.pred.bank != nil {
			out[i] = r.pred.bank.tally(c.Suite())
			continue
		}
		out[i] = c.predMemo[r.pred.key]
	}
	return out, nil
}

// predictorRun is one predictor's kernel over one input: each chunk goes
// through the predictor's SweepChunk, and the popcount of the miss
// bitmap adds to the tally.
type predictorRun struct {
	p     ablationPredictor
	wrong []uint64
	tally predictorTally
}

func (r *predictorRun) chunk(pcs, dirs []uint64, n int) {
	r.wrong = missBitmap(r.wrong, n)
	r.p.SweepChunk(pcs, dirs, n, r.wrong)
	for _, w := range r.wrong {
		r.tally.misses += int64(bits.OnesCount64(w))
	}
	r.tally.events += int64(n)
}

func (r *predictorRun) result() predictorTally { return r.tally }

func (r *predictorRun) release() { r.p.Release() }

// missBitmap returns a zeroed bitmap of one bit per event of an n-event
// chunk, reusing buf's storage when it is large enough.
func missBitmap(buf []uint64, n int) []uint64 {
	words := (n + 63) / 64
	if cap(buf) < words {
		return make([]uint64, words)
	}
	buf = buf[:words]
	clear(buf)
	return buf
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
		{"BiMode(16,k=12)", predictorSpec{key: "BiMode(16,15,k=12)", build: func(in *sim.InputResult) ablationPredictor {
			return bpred.NewBiMode(16, 15, 12)
		}}},
		{"YAGS(16,k=12)", predictorSpec{key: "YAGS(16,14,8,k=12)", build: func(in *sim.InputResult) ablationPredictor {
			return bpred.NewYAGS(16, 14, 8, 12)
		}}},
		{"Filter(32)+gshare(16,k=12)", predictorSpec{key: "Filter(14,32)+gshare(16,k=12)", build: func(in *sim.InputResult) ablationPredictor {
			return bpred.NewFilter(14, 32, bpred.NewGShare(16, 12))
		}}},
		{"gskew(16,k=12)", predictorSpec{key: "gskew(16,k=12)", build: func(in *sim.InputResult) ablationPredictor {
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
		{"TakenHybrid (Chang)", predictorSpec{key: "TakenHybrid", build: func(in *sim.InputResult) ablationPredictor {
			return bpred.NewTakenHybridTable(in.Table, in.Profiles, bpred.HybridComponents{})
		}}},
		{"DynamicClassHybrid (§6)", predictorSpec{key: "DynamicClassHybrid(13,64)", build: func(in *sim.InputResult) ablationPredictor {
			return bpred.NewDynamicClassHybrid(13, 64, bpred.HybridComponents{})
		}}},
		{"gshare(17,k=12)", gshare17k12Spec},
		{"PAs(k=8)", bankSpec(sim.KindPAs, 8)},
		{"GAs(k=10)", bankSpec(sim.KindGAs, 10)},
		{"Bimodal(17)", predictorSpec{key: "Bimodal(17)", build: func(in *sim.InputResult) ablationPredictor {
			return bpred.NewBimodal(bpred.GAsPHTBits)
		}}},
		{"Agree(17,k=10)", predictorSpec{key: "Agree(17,k=10,14)", build: func(in *sim.InputResult) ablationPredictor {
			return bpred.NewAgree(bpred.GAsPHTBits, 10, 14)
		}}},
		{"Tournament(PAs8,gshare10)", predictorSpec{key: "Tournament(PAs(k=8),gshare(16,k=10),12)", build: func(in *sim.InputResult) ablationPredictor {
			return bpred.NewTournament("Tournament(PAs8,gshare10)",
				bpred.NewPAs(8), bpred.NewGShare(16, 10), 12)
		}}},
		{"StaticBias(profile)", predictorSpec{key: "StaticBias(profile)", build: func(in *sim.InputResult) ablationPredictor {
			return bpred.NewProfiledStaticBias(in.Table, in.Profiles)
		}}},
		{"LastTime(17)", predictorSpec{key: "LastTime(17)", build: func(in *sim.InputResult) ablationPredictor {
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
		make  func(in *sim.InputResult) conf.ChunkObserver
		quads conf.Quadrants
	}
	entries := []*entry{
		{name: "class-static(0.08)", make: func(in *sim.InputResult) conf.ChunkObserver {
			return conf.NewClassStaticTable(in.Table, pasJoint, 0.08)
		}},
		{name: "jacobsen-1level", make: func(in *sim.InputResult) conf.ChunkObserver {
			return conf.NewOneLevel(12, 15, 8)
		}},
		{name: "jacobsen-2level", make: func(in *sim.InputResult) conf.ChunkObserver {
			return conf.NewTwoLevel(12, 10, 15, 8)
		}},
	}
	// One row: every estimator rides the same PAs pass over an input.
	parts, err := runGrid(c, 1, func(_ int, in *sim.InputResult) gridRow[[]conf.Quadrants] {
		r := &confidenceRun{
			pas:   bpred.NewPAs(8),
			ests:  make([]conf.ChunkObserver, len(entries)),
			quads: make([]conf.Quadrants, len(entries)),
		}
		for i, e := range entries {
			r.ests[i] = e.make(in)
		}
		return r
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

// confidenceRun is A2's kernel over one input: the predictor's chunk
// kernel leaves each chunk's miss bitmap, which every estimator then
// observes in turn. The estimators never affect the predictor or one
// another, so estimator-major order within a chunk sees exactly what
// event-major order would.
type confidenceRun struct {
	pas   *bpred.PAs
	ests  []conf.ChunkObserver
	quads []conf.Quadrants
	wrong []uint64
}

func (r *confidenceRun) chunk(pcs, dirs []uint64, n int) {
	r.wrong = missBitmap(r.wrong, n)
	r.pas.SweepChunk(pcs, dirs, n, r.wrong)
	for i, est := range r.ests {
		est.ObserveChunk(pcs, r.wrong, n, &r.quads[i])
	}
}

func (r *confidenceRun) result() []conf.Quadrants { return r.quads }

func (r *confidenceRun) release() {
	r.pas.Release()
	for _, est := range r.ests {
		est.Release()
	}
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
