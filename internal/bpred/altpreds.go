package bpred

import "fmt"

// The interference-reducing predictors the paper's related-work section
// surveys (§2, citing the YAGS paper's taxonomy): Bi-Mode, YAGS, the
// Filter, and the skewed predictor. All of them are implicit
// classification schemes — which is the paper's point — so having them
// here lets the ablations compare explicit (taken/transition) against
// implicit classification at equal budgets.

// BiMode is Lee, Chen & Mudge's predictor: a pc-indexed choice PHT picks
// one of two gshare-indexed direction PHTs ("mostly taken" and "mostly
// not-taken" banks), separating branches by bias so destructive aliasing
// between opposite-biased branches disappears.
type BiMode struct {
	k          int
	phtBits    int
	ghr        uint64
	histMask   uint64
	choice     *CounterTable
	banks      [2]*CounterTable
	choiceBits int
}

// NewBiMode builds a Bi-Mode predictor: 2^phtBits counters per direction
// bank, 2^choiceBits choice counters, history length k.
func NewBiMode(phtBits, choiceBits, k int) *BiMode {
	if k < 0 || k > phtBits {
		panic("bpred: BiMode history length out of range")
	}
	return &BiMode{
		k:          k,
		phtBits:    phtBits,
		histMask:   (1 << uint(k)) - 1,
		choice:     NewCounterTable(choiceBits),
		banks:      [2]*CounterTable{NewCounterTable(phtBits), NewCounterTable(phtBits)},
		choiceBits: choiceBits,
	}
}

// Name implements Predictor.
func (b *BiMode) Name() string { return fmt.Sprintf("BiMode(%d,k=%d)", b.phtBits, b.k) }

func (b *BiMode) index(pc uint64) uint64 { return pcIndex(pc) ^ (b.ghr & b.histMask) }

func (b *BiMode) bank(pc uint64) int {
	if b.choice.Predict(pcIndex(pc)) {
		return 1 // taken bank
	}
	return 0
}

// Predict implements Predictor.
func (b *BiMode) Predict(pc uint64) bool {
	return b.banks[b.bank(pc)].Predict(b.index(pc))
}

// Update implements Predictor. Only the chosen bank trains; the choice
// table trains except when it mispicked but the chosen bank still
// predicted correctly (the Bi-Mode partial-update rule).
func (b *BiMode) Update(pc uint64, taken bool) {
	bank := b.bank(pc)
	idx := b.index(pc)
	bankCorrect := b.banks[bank].Predict(idx) == taken
	choiceAgrees := (bank == 1) == taken
	if !(bankCorrect && !choiceAgrees) {
		b.choice.Update(pcIndex(pc), taken)
	}
	b.banks[bank].Update(idx, taken)
	b.ghr <<= 1
	if taken {
		b.ghr |= 1
	}
}

// PredictUpdate implements PredictUpdater: the bank choice and the bank
// index are computed once, and the bank counter is loaded once.
func (b *BiMode) PredictUpdate(pc uint64, taken bool) bool {
	ci := pcIndex(pc)
	bank := b.bank(pc)
	predicted := b.banks[bank].PredictUpdate(b.index(pc), taken)
	choiceAgrees := (bank == 1) == taken
	if !(predicted == taken && !choiceAgrees) {
		b.choice.Update(ci, taken)
	}
	b.ghr <<= 1
	if taken {
		b.ghr |= 1
	}
	return predicted
}

// SweepChunk implements ChunkSweeper.
func (b *BiMode) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	for i := 0; i < n; i++ {
		taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
		if b.PredictUpdate(pcs[i], taken) != taken {
			wrong[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// SizeBits implements Predictor.
func (b *BiMode) SizeBits() int64 {
	return b.choice.SizeBits() + b.banks[0].SizeBits() + b.banks[1].SizeBits() + int64(b.k)
}

// YAGS (Eden & Mudge) keeps a bimodal choice PHT for the common, biased
// case and two small tagged "exception caches" that record only the
// branches that deviate from their bias — taken-biased branches that
// sometimes fall through live in the not-taken cache and vice versa.
type YAGS struct {
	k         int
	cacheBits int
	tagBits   uint
	ghr       uint64
	histMask  uint64
	choice    *CounterTable
	caches    [2]yagsCache // [0] = not-taken cache, [1] = taken cache
}

type yagsCache struct {
	tags     []uint16
	counters []Counter2
	valid    []bool
	mask     uint64
}

func newYagsCache(bits int) yagsCache {
	n := 1 << uint(bits)
	c := yagsCache{
		tags:     make([]uint16, n),
		counters: make([]Counter2, n),
		valid:    make([]bool, n),
		mask:     uint64(n - 1),
	}
	for i := range c.counters {
		c.counters[i] = 1
	}
	return c
}

// NewYAGS builds a YAGS predictor: 2^choiceBits choice counters, two
// 2^cacheBits exception caches with tagBits-bit partial tags, history
// length k.
func NewYAGS(choiceBits, cacheBits, tagBits, k int) *YAGS {
	if k < 0 || k > 24 {
		panic("bpred: YAGS history length out of range")
	}
	return &YAGS{
		k:         k,
		cacheBits: cacheBits,
		tagBits:   uint(tagBits),
		histMask:  (1 << uint(k)) - 1,
		choice:    NewCounterTable(choiceBits),
		caches:    [2]yagsCache{newYagsCache(cacheBits), newYagsCache(cacheBits)},
	}
}

// Name implements Predictor.
func (y *YAGS) Name() string { return fmt.Sprintf("YAGS(%d,k=%d)", y.cacheBits, y.k) }

func (y *YAGS) cacheIndex(pc uint64) uint64 { return pcIndex(pc) ^ (y.ghr & y.histMask) }
func (y *YAGS) tag(pc uint64) uint16 {
	return uint16(pcIndex(pc) & ((1 << y.tagBits) - 1))
}

// Predict implements Predictor: consult the cache opposite the bias; on a
// tag hit its counter overrides the choice prediction.
func (y *YAGS) Predict(pc uint64) bool {
	bias := y.choice.Predict(pcIndex(pc))
	cache := &y.caches[0] // bias taken -> consult not-taken cache
	if !bias {
		cache = &y.caches[1]
	}
	i := y.cacheIndex(pc) & cache.mask
	if cache.valid[i] && cache.tags[i] == y.tag(pc) {
		return cache.counters[i].Predict()
	}
	return bias
}

// Update implements Predictor.
func (y *YAGS) Update(pc uint64, taken bool) {
	bias := y.choice.Predict(pcIndex(pc))
	cache := &y.caches[0]
	if !bias {
		cache = &y.caches[1]
	}
	i := y.cacheIndex(pc) & cache.mask
	hit := cache.valid[i] && cache.tags[i] == y.tag(pc)
	if hit {
		cache.counters[i] = cache.counters[i].Update(taken)
	} else if taken != bias {
		// The branch deviated from its bias: allocate an exception entry.
		cache.valid[i] = true
		cache.tags[i] = y.tag(pc)
		cache.counters[i] = 1
		cache.counters[i] = cache.counters[i].Update(taken)
	}
	// The choice PHT trains unless the cache overrode it correctly while
	// the choice itself was wrong (same partial-update idea as Bi-Mode).
	overrodeCorrectly := hit && cache.counters[i].Predict() == taken && bias != taken
	if !overrodeCorrectly {
		y.choice.Update(pcIndex(pc), taken)
	}
	y.ghr <<= 1
	if taken {
		y.ghr |= 1
	}
}

// PredictUpdate implements PredictUpdater: the bias, cache slot and tag
// are computed once for the prediction and the training.
func (y *YAGS) PredictUpdate(pc uint64, taken bool) bool {
	ci := pcIndex(pc)
	bias := y.choice.Predict(ci)
	cache := &y.caches[0]
	if !bias {
		cache = &y.caches[1]
	}
	i := y.cacheIndex(pc) & cache.mask
	tag := y.tag(pc)
	hit := cache.valid[i] && cache.tags[i] == tag
	predicted := bias
	if hit {
		predicted = cache.counters[i].Predict()
		cache.counters[i] = cache.counters[i].Update(taken)
	} else if taken != bias {
		cache.valid[i] = true
		cache.tags[i] = tag
		cache.counters[i] = Counter2(1).Update(taken)
	}
	if !(hit && cache.counters[i].Predict() == taken && bias != taken) {
		y.choice.Update(ci, taken)
	}
	y.ghr <<= 1
	if taken {
		y.ghr |= 1
	}
	return predicted
}

// SweepChunk implements ChunkSweeper.
func (y *YAGS) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	for i := 0; i < n; i++ {
		taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
		if y.PredictUpdate(pcs[i], taken) != taken {
			wrong[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// SizeBits implements Predictor.
func (y *YAGS) SizeBits() int64 {
	perCache := int64(len(y.caches[0].tags)) * (int64(y.tagBits) + 2 + 1)
	return y.choice.SizeBits() + 2*perCache + int64(y.k)
}

// Filter (Chang, Evers & Patt, PACT 1996) keeps heavily biased branches
// out of the dynamic tables with a per-branch run-length counter: once a
// branch repeats one direction more than threshold times in a row, it is
// predicted statically with that direction; any deviation sends it back
// to the dynamic predictor. The paper notes this counter is "a simple
// form of transition rate classification" — it measures executions since
// the last transition.
type Filter struct {
	threshold uint8
	counts    []uint8
	dirs      []bool
	mask      uint64
	dynamic   part
}

// NewFilter wraps a dynamic predictor with a 2^tableBits-entry filter and
// the given run-length threshold (e.g. 32).
func NewFilter(tableBits int, threshold uint8, dynamic Predictor) *Filter {
	n := 1 << uint(tableBits)
	return &Filter{
		threshold: threshold,
		counts:    make([]uint8, n),
		dirs:      make([]bool, n),
		mask:      uint64(n - 1),
		dynamic:   newPart(dynamic),
	}
}

// Name implements Predictor.
func (f *Filter) Name() string {
	return fmt.Sprintf("Filter(t=%d)+%s", f.threshold, f.dynamic.p.Name())
}

func (f *Filter) slot(pc uint64) uint64 { return pcIndex(pc) & f.mask }

// Filtered reports whether the branch is currently predicted statically.
func (f *Filter) Filtered(pc uint64) bool { return f.counts[f.slot(pc)] >= f.threshold }

// Predict implements Predictor.
func (f *Filter) Predict(pc uint64) bool {
	i := f.slot(pc)
	if f.counts[i] >= f.threshold {
		return f.dirs[i]
	}
	return f.dynamic.p.Predict(pc)
}

// Update implements Predictor. The dynamic predictor only trains on
// unfiltered branches — filtering exists to keep the biased traffic out
// of the shared tables.
func (f *Filter) Update(pc uint64, taken bool) {
	i := f.slot(pc)
	if f.counts[i] < f.threshold {
		f.dynamic.p.Update(pc, taken)
	}
	f.run(i, taken)
}

// PredictUpdate implements PredictUpdater: a filtered branch predicts
// its run direction; any other steps the dynamic predictor once.
func (f *Filter) PredictUpdate(pc uint64, taken bool) bool {
	i := f.slot(pc)
	predicted := f.dirs[i]
	if f.counts[i] < f.threshold {
		predicted = f.dynamic.step(pc, taken)
	}
	f.run(i, taken)
	return predicted
}

// SweepChunk implements ChunkSweeper.
func (f *Filter) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	for i := 0; i < n; i++ {
		taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
		if f.PredictUpdate(pcs[i], taken) != taken {
			wrong[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// run extends slot i's run of identical outcomes, or restarts it on a
// transition.
func (f *Filter) run(i uint64, taken bool) {
	if f.dirs[i] == taken {
		if f.counts[i] < 255 {
			f.counts[i]++
		}
	} else {
		// Transition: reset the run and re-admit to the dynamic tables.
		f.counts[i] = 1
		f.dirs[i] = taken
	}
}

// SizeBits implements Predictor.
func (f *Filter) SizeBits() int64 {
	return f.dynamic.p.SizeBits() + int64(len(f.counts))*9 // 8-bit count + direction
}

// GSkew (Michaud, Seznec & Uhlig) reads three counter banks through three
// different skewing hashes and votes; a branch pair aliasing in one bank
// almost never aliases in the other two, so the majority is clean.
type GSkew struct {
	k        int
	bankBits int
	ghr      uint64
	histMask uint64
	banks    [3]*CounterTable
}

// NewGSkew builds a gskew predictor with 3 banks of 2^bankBits counters
// and history length k.
func NewGSkew(bankBits, k int) *GSkew {
	if k < 0 || k > 24 {
		panic("bpred: gskew history length out of range")
	}
	return &GSkew{
		k:        k,
		bankBits: bankBits,
		histMask: (1 << uint(k)) - 1,
		banks:    [3]*CounterTable{NewCounterTable(bankBits), NewCounterTable(bankBits), NewCounterTable(bankBits)},
	}
}

// Name implements Predictor.
func (g *GSkew) Name() string { return fmt.Sprintf("gskew(%d,k=%d)", g.bankBits, g.k) }

// skewMul holds the three banks' odd multipliers: a simple stand-in for
// the paper's H/H^-1 skewing functions with the same
// pairwise-decorrelation goal.
var skewMul = [3]uint64{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9}

// skews mixes pc and history into the three banks' indices.
func (g *GSkew) skews(pc uint64) (i0, i1, i2 uint64) {
	x := pcIndex(pc) ^ (g.ghr & g.histMask)
	shift := 64 - uint(g.bankBits)
	return x * skewMul[0] >> shift, x * skewMul[1] >> shift, x * skewMul[2] >> shift
}

// majority returns the majority of three votes.
func majority(a, b, c bool) bool {
	if a == b {
		return a
	}
	return c
}

// Predict implements Predictor: majority vote of the three banks.
func (g *GSkew) Predict(pc uint64) bool {
	i0, i1, i2 := g.skews(pc)
	return majority(g.banks[0].Predict(i0), g.banks[1].Predict(i1), g.banks[2].Predict(i2))
}

// Update implements Predictor: total update policy (all banks train).
func (g *GSkew) Update(pc uint64, taken bool) {
	i0, i1, i2 := g.skews(pc)
	g.banks[0].Update(i0, taken)
	g.banks[1].Update(i1, taken)
	g.banks[2].Update(i2, taken)
	g.ghr <<= 1
	if taken {
		g.ghr |= 1
	}
}

// PredictUpdate implements PredictUpdater: each bank's counter is read
// for the vote and trained in one step.
func (g *GSkew) PredictUpdate(pc uint64, taken bool) bool {
	i0, i1, i2 := g.skews(pc)
	v0 := g.banks[0].PredictUpdate(i0, taken)
	v1 := g.banks[1].PredictUpdate(i1, taken)
	v2 := g.banks[2].PredictUpdate(i2, taken)
	g.ghr <<= 1
	if taken {
		g.ghr |= 1
	}
	return majority(v0, v1, v2)
}

// SweepChunk implements ChunkSweeper.
func (g *GSkew) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	for i := 0; i < n; i++ {
		taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
		if g.PredictUpdate(pcs[i], taken) != taken {
			wrong[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// SizeBits implements Predictor.
func (g *GSkew) SizeBits() int64 {
	return g.banks[0].SizeBits()*3 + int64(g.k)
}
