package bpred

import (
	"fmt"

	"btr/internal/core"
)

// AlwaysTaken predicts taken for every branch (the classic static
// baseline; backward-taken/forward-not-taken needs target addresses, which
// conditional-branch traces do not carry).
type AlwaysTaken struct{}

// NewAlwaysTaken returns the predictor.
func NewAlwaysTaken() AlwaysTaken { return AlwaysTaken{} }

// Name implements Predictor.
func (AlwaysTaken) Name() string { return "AlwaysTaken" }

// Predict implements Predictor.
func (AlwaysTaken) Predict(pc uint64) bool { return true }

// Update implements Predictor.
func (AlwaysTaken) Update(pc uint64, taken bool) {}

// PredictUpdate implements PredictUpdater.
func (AlwaysTaken) PredictUpdate(pc uint64, taken bool) bool { return true }

// SizeBits implements Predictor.
func (AlwaysTaken) SizeBits() int64 { return 0 }

// StaticBias predicts each branch's profiled majority direction — the
// static component Chang et al. assign to heavily biased branches.
// Branches without a profiled direction fall back to taken.
type StaticBias struct {
	sites core.Sites
	dirs  []bool // per site slot
}

// NewStaticBias returns a profile-guided static predictor. The map gives
// each branch PC its majority direction.
func NewStaticBias(bias map[uint64]bool) *StaticBias {
	s := newStaticBias(core.NewSites(bias))
	for pc, dir := range bias {
		s.dirs[s.sites.Slot(pc)] = dir
	}
	return s
}

// NewProfiledStaticBias returns the static predictor of each profiled
// branch's majority direction, laid out over a class table's sites
// (shared read-only). Profiled branches outside the table predict taken.
func NewProfiledStaticBias(tbl *core.ClassTable, profiles map[uint64]*core.Profile) *StaticBias {
	s := newStaticBias(tbl.Sites)
	for pc, p := range profiles {
		if slot := tbl.Slot(pc); slot >= 0 {
			s.dirs[slot] = p.TakenRate() >= 0.5
		}
	}
	return s
}

func newStaticBias(sites core.Sites) *StaticBias {
	s := &StaticBias{sites: sites, dirs: make([]bool, sites.Len())}
	for i := range s.dirs {
		s.dirs[i] = true
	}
	return s
}

// Name implements Predictor.
func (s *StaticBias) Name() string { return "StaticBias" }

// Predict implements Predictor.
func (s *StaticBias) Predict(pc uint64) bool {
	if slot := s.sites.Slot(pc); slot >= 0 {
		return s.dirs[slot]
	}
	return true
}

// Update implements Predictor.
func (s *StaticBias) Update(pc uint64, taken bool) {}

// PredictUpdate implements PredictUpdater.
func (s *StaticBias) PredictUpdate(pc uint64, taken bool) bool { return s.Predict(pc) }

// SweepChunk implements ChunkSweeper.
func (s *StaticBias) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	for i := 0; i < n; i++ {
		taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
		if s.Predict(pcs[i]) != taken {
			wrong[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// SizeBits implements Predictor. Profiled hints live in the binary, not
// predictor hardware, so the cost is zero table bits.
func (s *StaticBias) SizeBits() int64 { return 0 }

// LastTime predicts that each branch repeats its previous outcome (a
// 1-bit-per-entry table) — the zero-history behaviour the paper uses to
// explain why transition classes 9-10 are pathological without history.
type LastTime struct {
	bits []bool
	mask uint64
}

// NewLastTime returns a last-time predictor with 2^bits entries.
func NewLastTime(bits int) *LastTime {
	return &LastTime{bits: make([]bool, 1<<uint(bits)), mask: (1 << uint(bits)) - 1}
}

// Name implements Predictor.
func (l *LastTime) Name() string { return "LastTime" }

// Predict implements Predictor.
func (l *LastTime) Predict(pc uint64) bool { return l.bits[pcIndex(pc)&l.mask] }

// Update implements Predictor.
func (l *LastTime) Update(pc uint64, taken bool) { l.bits[pcIndex(pc)&l.mask] = taken }

// PredictUpdate implements PredictUpdater: one table index for the fused
// predict-then-update step.
func (l *LastTime) PredictUpdate(pc uint64, taken bool) bool {
	i := pcIndex(pc) & l.mask
	predicted := l.bits[i]
	l.bits[i] = taken
	return predicted
}

// SweepChunk implements ChunkSweeper.
func (l *LastTime) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	for i := 0; i < n; i++ {
		taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
		if l.PredictUpdate(pcs[i], taken) != taken {
			wrong[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// SizeBits implements Predictor.
func (l *LastTime) SizeBits() int64 { return int64(len(l.bits)) }

// Bimodal is a table of 2-bit counters indexed by branch address (Smith),
// equivalent to the paper's k = 0 configuration when sized at 2^17.
type Bimodal struct {
	pht  *CounterTable
	bits int
}

// NewBimodal returns a bimodal predictor with 2^bits counters.
func NewBimodal(bits int) *Bimodal {
	return &Bimodal{pht: NewCounterTable(bits), bits: bits}
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return fmt.Sprintf("Bimodal(%d)", b.bits) }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.pht.Predict(pcIndex(pc)) }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) { b.pht.Update(pcIndex(pc), taken) }

// PredictUpdate implements PredictUpdater.
func (b *Bimodal) PredictUpdate(pc uint64, taken bool) bool {
	return b.pht.PredictUpdate(pcIndex(pc), taken)
}

// SweepChunk implements ChunkSweeper.
func (b *Bimodal) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	for i := 0; i < n; i++ {
		taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
		if b.PredictUpdate(pcs[i], taken) != taken {
			wrong[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// SizeBits implements Predictor.
func (b *Bimodal) SizeBits() int64 { return b.pht.SizeBits() }

// GShare XORs k bits of global history into the PHT index (McFarling).
type GShare struct {
	k       int
	phtBits int
	ghr     uint64
	mask    uint64
	pht     *CounterTable
}

// NewGShare returns a gshare predictor with 2^phtBits counters and history
// length k <= phtBits.
func NewGShare(phtBits, k int) *GShare {
	if k < 0 || k > phtBits {
		panic("bpred: gshare history length out of range")
	}
	return &GShare{
		k:       k,
		phtBits: phtBits,
		mask:    (1 << uint(k)) - 1,
		pht:     NewCounterTable(phtBits),
	}
}

// Name implements Predictor.
func (g *GShare) Name() string { return fmt.Sprintf("gshare(%d,k=%d)", g.phtBits, g.k) }

func (g *GShare) index(pc uint64) uint64 { return pcIndex(pc) ^ (g.ghr & g.mask) }

// Predict implements Predictor.
func (g *GShare) Predict(pc uint64) bool { return g.pht.Predict(g.index(pc)) }

// Update implements Predictor.
func (g *GShare) Update(pc uint64, taken bool) {
	g.pht.Update(g.index(pc), taken)
	g.ghr <<= 1
	if taken {
		g.ghr |= 1
	}
}

// PredictUpdate implements PredictUpdater: the XORed index is computed
// once for the fused predict-then-update step.
func (g *GShare) PredictUpdate(pc uint64, taken bool) bool {
	predicted := g.pht.PredictUpdate(g.index(pc), taken)
	g.ghr <<= 1
	if taken {
		g.ghr |= 1
	}
	return predicted
}

// SweepChunk implements ChunkSweeper.
func (g *GShare) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	for i := 0; i < n; i++ {
		taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
		if g.PredictUpdate(pcs[i], taken) != taken {
			wrong[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// SizeBits implements Predictor.
func (g *GShare) SizeBits() int64 { return g.pht.SizeBits() + int64(g.k) }

// Agree stores a per-branch bias bit and lets gshare-indexed counters vote
// on whether the branch will agree with its bias (Sprangle et al.), turning
// destructive PHT interference into neutral or constructive interference.
// The bias is set by the branch's first observed outcome.
type Agree struct {
	inner    *GShare
	bias     []bool
	seen     []bool
	biasMask uint64
}

// NewAgree returns an agree predictor with 2^phtBits agreement counters,
// history length k, and 2^biasBits first-time bias bits.
func NewAgree(phtBits, k, biasBits int) *Agree {
	return &Agree{
		inner:    NewGShare(phtBits, k),
		bias:     make([]bool, 1<<uint(biasBits)),
		seen:     make([]bool, 1<<uint(biasBits)),
		biasMask: (1 << uint(biasBits)) - 1,
	}
}

// Name implements Predictor.
func (a *Agree) Name() string { return fmt.Sprintf("Agree(%d,k=%d)", a.inner.phtBits, a.inner.k) }

// Predict implements Predictor.
func (a *Agree) Predict(pc uint64) bool {
	i := pcIndex(pc) & a.biasMask
	bias := true
	if a.seen[i] {
		bias = a.bias[i]
	}
	agree := a.inner.pht.Predict(a.inner.index(pc))
	return agree == bias
}

// Update implements Predictor.
func (a *Agree) Update(pc uint64, taken bool) {
	i := pcIndex(pc) & a.biasMask
	if !a.seen[i] {
		a.seen[i] = true
		a.bias[i] = taken
	}
	agreed := taken == a.bias[i]
	a.inner.pht.Update(a.inner.index(pc), agreed)
	a.inner.ghr <<= 1
	if taken {
		a.inner.ghr |= 1
	}
}

// PredictUpdate implements PredictUpdater. The prediction uses the
// pre-update bias/seen state, exactly as a Predict-then-Update pair does;
// the agreement counter is loaded and stored once.
func (a *Agree) PredictUpdate(pc uint64, taken bool) bool {
	i := pcIndex(pc) & a.biasMask
	// An unseen branch predicts against a taken bias and trains against
	// its first outcome, which becomes its bias.
	predBias, trainBias := true, taken
	if a.seen[i] {
		predBias = a.bias[i]
		trainBias = predBias
	} else {
		a.seen[i] = true
		a.bias[i] = taken
	}
	agree := a.inner.pht.PredictUpdate(a.inner.index(pc), taken == trainBias)
	a.inner.ghr <<= 1
	if taken {
		a.inner.ghr |= 1
	}
	return agree == predBias
}

// SweepChunk implements ChunkSweeper.
func (a *Agree) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	for i := 0; i < n; i++ {
		taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
		if a.PredictUpdate(pcs[i], taken) != taken {
			wrong[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// SizeBits implements Predictor.
func (a *Agree) SizeBits() int64 { return a.inner.SizeBits() + int64(len(a.bias)) }

// Tournament combines two component predictors with a 2-bit chooser table
// indexed by branch address (McFarling's combining predictor).
type Tournament struct {
	name    string
	a, b    part
	chooser *CounterTable
	// fused is set when a and b are distinct default-type components:
	// each then predicts and trains in one step, which is the same as
	// predicting both before training either. Other components keep
	// separate Predict and Update calls.
	fused bool
}

// NewTournament combines a and b; the chooser has 2^chooserBits counters.
// Chooser counter >= 2 selects component a.
func NewTournament(name string, a, b Predictor, chooserBits int) *Tournament {
	t := &Tournament{name: name, a: newPart(a), b: newPart(b), chooser: NewCounterTable(chooserBits)}
	t.fused = t.a.concrete() && t.b.concrete() && a != b
	return t
}

// Name implements Predictor.
func (t *Tournament) Name() string { return t.name }

// Predict implements Predictor.
func (t *Tournament) Predict(pc uint64) bool {
	if t.chooser.Predict(pcIndex(pc)) {
		return t.a.p.Predict(pc)
	}
	return t.b.p.Predict(pc)
}

// Update implements Predictor.
func (t *Tournament) Update(pc uint64, taken bool) {
	aRight := t.a.p.Predict(pc) == taken
	bRight := t.b.p.Predict(pc) == taken
	// Train the chooser only when the components disagree.
	if aRight != bRight {
		t.chooser.Update(pcIndex(pc), aRight)
	}
	t.a.p.Update(pc, taken)
	t.b.p.Update(pc, taken)
}

// PredictUpdate implements PredictUpdater: each component predicts once,
// serving both the output selection and the chooser training that separate
// Predict/Update calls would recompute.
func (t *Tournament) PredictUpdate(pc uint64, taken bool) bool {
	var aPred, bPred bool
	if t.fused {
		aPred = t.a.step(pc, taken)
		bPred = t.b.step(pc, taken)
	} else {
		aPred = t.a.p.Predict(pc)
		bPred = t.b.p.Predict(pc)
	}
	i := pcIndex(pc)
	predicted := bPred
	if t.chooser.Predict(i) {
		predicted = aPred
	}
	if (aPred == taken) != (bPred == taken) {
		t.chooser.Update(i, aPred == taken)
	}
	if !t.fused {
		t.a.p.Update(pc, taken)
		t.b.p.Update(pc, taken)
	}
	return predicted
}

// SweepChunk implements ChunkSweeper.
func (t *Tournament) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	for i := 0; i < n; i++ {
		taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
		if t.PredictUpdate(pcs[i], taken) != taken {
			wrong[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// SizeBits implements Predictor.
func (t *Tournament) SizeBits() int64 {
	return t.a.p.SizeBits() + t.b.p.SizeBits() + t.chooser.SizeBits()
}
