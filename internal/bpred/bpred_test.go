package bpred

import (
	"testing"
	"testing/quick"

	"btr/internal/trace"
)

func TestCounter2Saturation(t *testing.T) {
	c := Counter2(0)
	if c.Predict() {
		t.Fatal("0 must predict not-taken")
	}
	c = c.Update(false)
	if c != 0 {
		t.Fatal("decrement must saturate at 0")
	}
	for i := 0; i < 10; i++ {
		c = c.Update(true)
	}
	if c != 3 {
		t.Fatalf("increment must saturate at 3, got %d", c)
	}
	if !c.Predict() {
		t.Fatal("3 must predict taken")
	}
	c = c.Update(false) // 2: still taken (hysteresis)
	if c != 2 || !c.Predict() {
		t.Fatalf("2-bit hysteresis broken: %d", c)
	}
}

func TestCounterTable(t *testing.T) {
	tbl := NewCounterTable(4)
	if tbl.Len() != 16 || tbl.SizeBits() != 32 {
		t.Fatalf("len=%d size=%d", tbl.Len(), tbl.SizeBits())
	}
	if tbl.Counter(3) != 1 {
		t.Fatal("initial counters must be weakly not-taken (1)")
	}
	tbl.Update(3, true)
	tbl.Update(3, true)
	if !tbl.Predict(3) {
		t.Fatal("trained counter must predict taken")
	}
	// index masking: 19 & 15 == 3
	if !tbl.Predict(19) {
		t.Fatal("index must wrap by mask")
	}
}

func TestCounterTablePanicsOnBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewCounterTable(-1)
}

func TestBHTEntriesLog2(t *testing.T) {
	// entries = largest power of two with entries*k <= 2^17
	cases := map[int]int{1: 17, 2: 16, 3: 15, 4: 15, 5: 14, 8: 14, 9: 13, 16: 13}
	for k, want := range cases {
		if got := BHTEntriesLog2(k); got != want {
			t.Fatalf("BHTEntriesLog2(%d) = %d, want %d", k, got, want)
		}
		entries := 1 << BHTEntriesLog2(k)
		if entries*k > BHTBudgetBits || entries*2*k <= BHTBudgetBits {
			t.Fatalf("k=%d: %d entries not maximal within budget", k, entries)
		}
	}
}

func TestPaperBudget(t *testing.T) {
	// All PAs and GAs configurations must fit the 32KB (2^18 bits) budget,
	// and use most of it.
	const budget = 1 << 18
	for k := 0; k <= MaxHistory; k++ {
		for _, p := range []Predictor{NewPAs(k), NewGAs(k)} {
			bits := p.SizeBits()
			if bits > budget+MaxHistory {
				t.Fatalf("%s uses %d bits, budget %d", p.Name(), bits, budget)
			}
			if bits < budget/2 {
				t.Fatalf("%s uses only %d bits of %d", p.Name(), bits, budget)
			}
		}
	}
}

func TestPAsGeometry(t *testing.T) {
	p := NewPAs(8)
	if p.BHTEntries() != 1<<14 {
		t.Fatalf("PAs(8) BHT entries %d, want 2^14", p.BHTEntries())
	}
	if p.HistoryLength() != 8 {
		t.Fatal("history length")
	}
	p0 := NewPAs(0)
	if p0.BHTEntries() != 0 {
		t.Fatal("PAs(0) must have no BHT")
	}
	if p0.SizeBits() != 1<<18 {
		t.Fatalf("PAs(0) must be one 2^17-counter table, got %d bits", p0.SizeBits())
	}
}

func TestPanicsOnBadHistory(t *testing.T) {
	for _, f := range []func(){
		func() { NewPAs(-1) },
		func() { NewPAs(MaxHistory + 1) },
		func() { NewGAs(-1) },
		func() { NewGAs(MaxHistory + 1) },
		func() { NewGAg(0) },
		func() { NewPAg(0, 10) },
		func() { NewGShare(10, 11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// runPattern drives a predictor with a repeating outcome pattern at one PC
// and returns the miss rate over the last `measure` events (after warmup).
func runPattern(p Predictor, pc uint64, pattern []bool, warmup, measure int) float64 {
	misses := 0
	for i := 0; i < warmup+measure; i++ {
		taken := pattern[i%len(pattern)]
		if i >= warmup && p.Predict(pc) != taken {
			misses++
		}
		p.Update(pc, taken)
	}
	return float64(misses) / float64(measure)
}

func TestBiasedBranchEasyForEveryone(t *testing.T) {
	always := []bool{true}
	preds := []Predictor{
		NewPAs(0), NewPAs(4), NewGAs(0), NewGAs(8),
		NewBimodal(12), NewGShare(12, 6), NewLastTime(12),
		NewGAg(8), NewPAg(8, 10), NewAgree(12, 6, 10),
	}
	for _, p := range preds {
		if miss := runPattern(p, 0x400100, always, 16, 1000); miss > 0 {
			t.Fatalf("%s misses %.3f on always-taken", p.Name(), miss)
		}
	}
}

func TestAlternatorNeedsHistory(t *testing.T) {
	alt := []bool{true, false}
	// Zero history: 2-bit counter oscillates between 1 and 2 -> ~100% miss
	// (the paper's explanation for transition classes 9-10 at k=0).
	if miss := runPattern(NewPAs(0), 0x400100, alt, 64, 1000); miss < 0.9 {
		t.Fatalf("PAs(0) on alternator missed only %.3f, want ~1.0", miss)
	}
	// One bit of local history nails it.
	if miss := runPattern(NewPAs(1), 0x400100, alt, 64, 1000); miss > 0.01 {
		t.Fatalf("PAs(1) on alternator missed %.3f, want ~0", miss)
	}
	// Global history also captures a single alternating branch.
	if miss := runPattern(NewGAs(2), 0x400100, alt, 64, 1000); miss > 0.01 {
		t.Fatalf("GAs(2) on alternator missed %.3f, want ~0", miss)
	}
	// Last-time is the pathological case: always wrong.
	if miss := runPattern(NewLastTime(12), 0x400100, alt, 64, 1000); miss < 0.99 {
		t.Fatalf("LastTime on alternator missed only %.3f, want 1.0", miss)
	}
}

func TestPeriodicPatternNeedsEnoughHistory(t *testing.T) {
	// Period-6 pattern TTTNNN: k >= 5 local history predicts perfectly;
	// k = 1 cannot.
	pattern := []bool{true, true, true, false, false, false}
	if miss := runPattern(NewPAs(6), 0x400100, pattern, 256, 1200); miss > 0.01 {
		t.Fatalf("PAs(6) on period-6 missed %.3f", miss)
	}
	if miss := runPattern(NewPAs(1), 0x400100, pattern, 256, 1200); miss < 0.10 {
		t.Fatalf("PAs(1) on period-6 missed only %.3f, should struggle", miss)
	}
}

func TestPAsZeroEqualsGAsZero(t *testing.T) {
	// k = 0: both degenerate to the same 2^17-counter table (§3).
	pas, gas := NewPAs(0), NewGAs(0)
	r := newTestRand(99)
	for i := 0; i < 20000; i++ {
		pc := uint64(0x400000 + (r.next()%512)*4)
		taken := r.next()%3 != 0
		if pas.Predict(pc) != gas.Predict(pc) {
			t.Fatalf("PAs(0) and GAs(0) diverged at event %d", i)
		}
		pas.Update(pc, taken)
		gas.Update(pc, taken)
	}
}

func TestGAsUsesGlobalCorrelation(t *testing.T) {
	// Branch B is taken iff branch A was taken: global history sees it,
	// per-address history cannot (B alone looks random).
	gas := NewGAs(4)
	r := newTestRand(7)
	warm, measure, misses := 2000, 4000, 0
	for i := 0; i < warm+measure; i++ {
		aTaken := r.next()%2 == 0
		gas.Update(0x400000, aTaken) // branch A (predict value unused)
		predicted := gas.Predict(0x400100)
		if i >= warm && predicted != aTaken {
			misses++
		}
		gas.Update(0x400100, aTaken) // branch B copies A
	}
	if rate := float64(misses) / float64(measure); rate > 0.05 {
		t.Fatalf("GAs missed correlated branch %.3f of the time", rate)
	}
}

func TestStaticBias(t *testing.T) {
	s := NewStaticBias(map[uint64]bool{0x10: false, 0x20: true})
	if s.Predict(0x10) || !s.Predict(0x20) {
		t.Fatal("bias directions")
	}
	if !s.Predict(0x999) {
		t.Fatal("unknown branches default to taken")
	}
	s.Update(0x10, true) // no-op
	if s.Predict(0x10) {
		t.Fatal("static predictor must not learn")
	}
	if s.SizeBits() != 0 || NewAlwaysTaken().SizeBits() != 0 {
		t.Fatal("static predictors cost no table bits")
	}
	if !NewAlwaysTaken().Predict(1) {
		t.Fatal("AlwaysTaken")
	}
}

func TestTournamentLearnsChooser(t *testing.T) {
	// Component a is perfect, b is anti-perfect; the chooser must learn a.
	a := NewStaticBias(map[uint64]bool{0x40: true})
	b := NewStaticBias(map[uint64]bool{0x40: false})
	tour := NewTournament("t", a, b, 10)
	misses := 0
	for i := 0; i < 100; i++ {
		if tour.Predict(0x40) != true {
			misses++
		}
		tour.Update(0x40, true)
	}
	if misses > 5 {
		t.Fatalf("tournament missed %d/100 with a perfect component", misses)
	}
	if tour.Name() != "t" {
		t.Fatal("name")
	}
	if tour.SizeBits() != a.SizeBits()+b.SizeBits()+2*1024 {
		t.Fatalf("size accounting: %d", tour.SizeBits())
	}
}

func TestAgreeLearnsBiasedBranch(t *testing.T) {
	// A 90%-taken branch: agree's first-outcome bias converts most updates
	// into "agree", so even heavy aliasing stays constructive.
	ag := NewAgree(12, 6, 10)
	r := newTestRand(3)
	misses := 0
	const warm, measure = 500, 5000
	for i := 0; i < warm+measure; i++ {
		taken := r.next()%10 != 0
		if i >= warm && ag.Predict(0x80) != taken {
			misses++
		}
		ag.Update(0x80, taken)
	}
	if rate := float64(misses) / measure; rate > 0.2 {
		t.Fatalf("agree missed %.3f on 90%% branch", rate)
	}
}

func TestRunAndSink(t *testing.T) {
	events := []trace.Event{
		{PC: 0x40, Taken: true}, {PC: 0x40, Taken: true},
		{PC: 0x40, Taken: true}, {PC: 0x40, Taken: false},
	}
	res, err := Run(NewBimodal(10), trace.SliceSource(events))
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 4 {
		t.Fatalf("events %d", res.Events)
	}
	if res.MissRate() < 0 || res.MissRate() > 1 {
		t.Fatalf("miss rate %v", res.MissRate())
	}
	if (Result{}).MissRate() != 0 {
		t.Fatal("empty result miss rate")
	}

	sink := NewSink(NewBimodal(10))
	for _, ev := range events {
		sink.Branch(ev.PC, ev.Taken)
	}
	if sink.Res != res {
		t.Fatalf("sink result %+v, Run result %+v", sink.Res, res)
	}
}

func TestQuickPredictorDeterminism(t *testing.T) {
	f := func(seed uint64, k8 uint8) bool {
		k := int(k8) % (MaxHistory + 1)
		a, b := NewPAs(k), NewPAs(k)
		g1, g2 := NewGAs(k), NewGAs(k)
		r := newTestRand(seed)
		for i := 0; i < 256; i++ {
			pc := uint64(0x400000 + (r.next()%64)*4)
			taken := r.next()%2 == 0
			if a.Predict(pc) != b.Predict(pc) || g1.Predict(pc) != g2.Predict(pc) {
				return false
			}
			a.Update(pc, taken)
			b.Update(pc, taken)
			g1.Update(pc, taken)
			g2.Update(pc, taken)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// newTestRand is a tiny deterministic generator for predictor tests,
// independent of internal/rng to keep the package dependency-light.
type testRand struct{ s uint64 }

func newTestRand(seed uint64) *testRand { return &testRand{s: seed*2862933555777941757 + 3037000493} }

func (t *testRand) next() uint64 {
	t.s ^= t.s << 13
	t.s ^= t.s >> 7
	t.s ^= t.s << 17
	return t.s
}
