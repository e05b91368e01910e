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
	k        int
	phtBits  int
	ghr      uint64
	histMask uint64
	choice   *CounterTable
	// banks holds the not-taken bank's 2^phtBits counters, then the
	// taken bank's: the chosen bank's bit is the top index bit.
	banks      *CounterTable
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
		banks:      NewCounterTable(phtBits + 1),
		choiceBits: choiceBits,
	}
}

// Name implements Predictor.
func (b *BiMode) Name() string { return fmt.Sprintf("BiMode(%d,k=%d)", b.phtBits, b.k) }

// index returns pc's counter in the bank the choice PHT picks for it.
func (b *BiMode) index(pc uint64) uint64 {
	bank := uint64(0)
	if b.choice.Predict(pcIndex(pc)) {
		bank = 1 // taken bank
	}
	return bank<<uint(b.phtBits) | (pcIndex(pc)^(b.ghr&b.histMask))&(1<<uint(b.phtBits)-1)
}

// Predict implements Predictor.
func (b *BiMode) Predict(pc uint64) bool {
	return b.banks.Predict(b.index(pc))
}

// Update implements Predictor. Only the chosen bank trains; the choice
// table trains except when it mispicked but the chosen bank still
// predicted correctly (the Bi-Mode partial-update rule).
func (b *BiMode) Update(pc uint64, taken bool) {
	idx := b.index(pc)
	bankCorrect := b.banks.Predict(idx) == taken
	choiceAgrees := (idx>>uint(b.phtBits) == 1) == taken
	if !(bankCorrect && !choiceAgrees) {
		b.choice.Update(pcIndex(pc), taken)
	}
	b.banks.Update(idx, taken)
	b.ghr <<= 1
	if taken {
		b.ghr |= 1
	}
}

// PredictUpdate implements PredictUpdater: the bank choice and the bank
// index are computed once, and the bank counter is loaded once.
func (b *BiMode) PredictUpdate(pc uint64, taken bool) bool {
	idx := b.index(pc)
	predicted := b.banks.PredictUpdate(idx, taken)
	choiceAgrees := (idx>>uint(b.phtBits) == 1) == taken
	if !(predicted == taken && !choiceAgrees) {
		b.choice.Update(pcIndex(pc), taken)
	}
	b.ghr <<= 1
	if taken {
		b.ghr |= 1
	}
	return predicted
}

// SweepChunk implements ChunkSweeper in the shape of GAs.SweepChunk: the
// choice counter's bit is the bank's index bit, and the choice trains
// through a store masked by the partial-update rule.
func (b *BiMode) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	choice, cmask := b.choice.counters, b.choice.mask
	banks, shift := b.banks.counters, uint(b.phtBits)&63
	bankMask, histMask, ghr := uint64(1)<<shift-1, b.histMask, b.ghr
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := d >> (uint(j) & 63) & 1
			x := pcIndex(pc)
			cc := choice[x&cmask]
			bank := uint64(cc >> 1)
			p := train(banks, bank<<shift|(x^ghr&histMask)&bankMask, t)
			// The choice keeps its counter when the chosen bank was
			// right and the choice was not.
			keep := (p ^ t ^ 1) & (bank ^ t)
			choice[x&cmask] = cc ^ (cc^cc.next(t))&Counter2(keep-1)
			ghr = ghr<<1 | t
			miss |= (p ^ t) << (uint(j) & 63)
		}
		wrong[base>>6] |= miss
	}
	b.ghr = ghr
}

// SizeBits implements Predictor.
func (b *BiMode) SizeBits() int64 {
	return b.choice.SizeBits() + b.banks.SizeBits() + int64(b.k)
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
	// The two exception caches, the not-taken cache's 2^cacheBits
	// entries then the taken cache's: a taken bias consults the first.
	// tags holds each entry's partial tag plus one, 0 marking an empty
	// entry.
	tags      []uint16
	counters  []Counter2
	cacheMask uint64
}

// NewYAGS builds a YAGS predictor: 2^choiceBits choice counters, two
// 2^cacheBits exception caches with tagBits-bit partial tags (1..15),
// history length k.
func NewYAGS(choiceBits, cacheBits, tagBits, k int) *YAGS {
	if k < 0 || k > 24 {
		panic("bpred: YAGS history length out of range")
	}
	if tagBits < 1 || tagBits > 15 {
		panic("bpred: YAGS tag bits out of range")
	}
	n := 2 << uint(cacheBits)
	y := &YAGS{
		k:         k,
		cacheBits: cacheBits,
		tagBits:   uint(tagBits),
		histMask:  (1 << uint(k)) - 1,
		choice:    NewCounterTable(choiceBits),
		tags:      make([]uint16, n),
		counters:  make([]Counter2, n),
		cacheMask: 1<<uint(cacheBits) - 1,
	}
	for i := range y.counters {
		y.counters[i] = 1
	}
	return y
}

// Name implements Predictor.
func (y *YAGS) Name() string { return fmt.Sprintf("YAGS(%d,k=%d)", y.cacheBits, y.k) }

// entry returns pc's entry in the cache opposite bias.
func (y *YAGS) entry(pc uint64, bias bool) uint64 {
	i := (pcIndex(pc) ^ (y.ghr & y.histMask)) & y.cacheMask
	if !bias {
		i |= 1 << uint(y.cacheBits)
	}
	return i
}

// tag returns pc's stored tag: its partial tag plus one.
func (y *YAGS) tag(pc uint64) uint16 {
	return uint16(pcIndex(pc)&((1<<y.tagBits)-1)) + 1
}

// Predict implements Predictor: consult the cache opposite the bias; on a
// tag hit its counter overrides the choice prediction.
func (y *YAGS) Predict(pc uint64) bool {
	bias := y.choice.Predict(pcIndex(pc))
	if i := y.entry(pc, bias); y.tags[i] == y.tag(pc) {
		return y.counters[i].Predict()
	}
	return bias
}

// Update implements Predictor.
func (y *YAGS) Update(pc uint64, taken bool) {
	bias := y.choice.Predict(pcIndex(pc))
	i := y.entry(pc, bias)
	hit := y.tags[i] == y.tag(pc)
	if hit {
		y.counters[i] = y.counters[i].Update(taken)
	} else if taken != bias {
		// The branch deviated from its bias: allocate an exception entry.
		y.tags[i] = y.tag(pc)
		y.counters[i] = 1
		y.counters[i] = y.counters[i].Update(taken)
	}
	// The choice PHT trains unless the cache overrode it correctly while
	// the choice itself was wrong (same partial-update idea as Bi-Mode).
	overrodeCorrectly := hit && y.counters[i].Predict() == taken && bias != taken
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
	i := y.entry(pc, bias)
	tag := y.tag(pc)
	hit := y.tags[i] == tag
	predicted := bias
	if hit {
		predicted = y.counters[i].Predict()
		y.counters[i] = y.counters[i].Update(taken)
	} else if taken != bias {
		y.tags[i] = tag
		y.counters[i] = Counter2(1).Update(taken)
	}
	if !(hit && y.counters[i].Predict() == taken && bias != taken) {
		y.choice.Update(ci, taken)
	}
	y.ghr <<= 1
	if taken {
		y.ghr |= 1
	}
	return predicted
}

// SweepChunk implements ChunkSweeper in the shape of GAs.SweepChunk. A
// tag hit or an allocation, the rare exception-cache traffic, is a
// branch; the choice trains through a store masked by the
// partial-update rule. Writing the cache entry back on every event
// through masked stores measured slower.
func (y *YAGS) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	choice, cmask := y.choice.counters, y.choice.mask
	tags, counters := y.tags, y.counters
	cacheMask, cacheShift := y.cacheMask, uint(y.cacheBits)&63
	tagMask, histMask, ghr := uint64(1)<<y.tagBits-1, y.histMask, y.ghr
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := d >> (uint(j) & 63) & 1
			x := pcIndex(pc)
			cc := choice[x&cmask]
			bias := uint64(cc >> 1)
			i := (bias^1)<<cacheShift | (x^ghr&histMask)&cacheMask
			tag := x&tagMask + 1
			p, keep := bias, uint64(0)
			if uint64(tags[i]) == tag {
				c := counters[i]
				nc := c.next(t)
				counters[i] = nc
				p = uint64(c >> 1)
				// The choice keeps its counter when the cache overrode
				// it correctly.
				keep = (uint64(nc>>1) ^ t ^ 1) & (bias ^ t)
			} else if t != bias {
				tags[i] = uint16(tag)
				counters[i] = Counter2(1).next(t)
			}
			choice[x&cmask] = cc ^ (cc^cc.next(t))&Counter2(keep-1)
			ghr = ghr<<1 | t
			miss |= (p ^ t) << (uint(j) & 63)
		}
		wrong[base>>6] |= miss
	}
	y.ghr = ghr
}

// SizeBits implements Predictor.
func (y *YAGS) SizeBits() int64 {
	return y.choice.SizeBits() + int64(len(y.tags))*(int64(y.tagBits)+2+1) + int64(y.k)
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
	dirs      []uint8 // each slot's run direction bit
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
		dirs:      make([]uint8, n),
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
		return f.dirs[i] == 1
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
	predicted := f.dirs[i] == 1
	if f.counts[i] < f.threshold {
		predicted = f.dynamic.step(pc, taken)
	}
	f.run(i, taken)
	return predicted
}

// SweepChunk implements ChunkSweeper. Over a gshare it runs in the shape
// of GAs.SweepChunk: a slot below the threshold steps the gshare inline,
// a filtered one predicts its run direction, and the run extends or
// restarts by arithmetic. Whether a slot is filtered is a branch: it
// holds for whole runs of the branch, and stepping the gshare through a
// masked store on every event measured slower. Any other dynamic
// predictor runs sweepSteps.
func (f *Filter) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	g := f.dynamic.gshare
	if g == nil {
		sweepSteps(f, pcs, dirs, n, wrong)
		return
	}
	gc, ghr := g.cols(), g.ghr
	counts, runDir, mask, threshold := f.counts, f.dirs, f.mask, f.threshold
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := d >> (uint(j) & 63) & 1
			x := pcIndex(pc)
			i := x & mask
			c, r := counts[i], uint64(runDir[i])
			p := r
			if c < threshold {
				p = gc.step(x, ghr, t)
				ghr = ghr<<1 | t
			}
			// The run grows, saturating at 255, while the outcome
			// repeats r, and restarts at 1 on a transition.
			grown := uint64(c) + 1
			grown -= grown >> 8
			counts[i] = uint8(1 + (grown-1)&-(r^t^1))
			runDir[i] = uint8(t)
			miss |= (p ^ t) << (uint(j) & 63)
		}
		wrong[base>>6] |= miss
	}
	g.ghr = ghr
}

// run extends slot i's run of identical outcomes, or restarts it on a
// transition.
func (f *Filter) run(i uint64, taken bool) {
	if f.dirs[i] == uint8(bit(taken)) {
		if f.counts[i] < 255 {
			f.counts[i]++
		}
	} else {
		// Transition: reset the run and re-admit to the dynamic tables.
		f.counts[i] = 1
		f.dirs[i] = uint8(bit(taken))
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

// SweepChunk implements ChunkSweeper in the shape of GAs.SweepChunk; the
// vote is the bitwise majority of the three banks' prediction bits.
func (g *GSkew) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	b0, b1, b2 := g.banks[0].counters, g.banks[1].counters, g.banks[2].counters
	shift, histMask, ghr := 64-uint(g.bankBits), g.histMask, g.ghr
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := d >> (uint(j) & 63) & 1
			x := pcIndex(pc) ^ ghr&histMask
			v0 := train(b0, x*skewMul[0]>>shift, t)
			v1 := train(b1, x*skewMul[1]>>shift, t)
			v2 := train(b2, x*skewMul[2]>>shift, t)
			ghr = ghr<<1 | t
			miss |= (v0&v1 | v0&v2 | v1&v2 ^ t) << (uint(j) & 63)
		}
		wrong[base>>6] |= miss
	}
	g.ghr = ghr
}

// SizeBits implements Predictor.
func (g *GSkew) SizeBits() int64 {
	return g.banks[0].SizeBits()*3 + int64(g.k)
}
