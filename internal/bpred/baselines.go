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

// SizeBits implements Predictor.
func (AlwaysTaken) SizeBits() int64 { return 0 }

// StaticBias predicts each branch's profiled majority direction — the
// static component Chang et al. assign to heavily biased branches.
// Branches without a profiled direction fall back to taken.
type StaticBias struct {
	sites core.Sites
	dirs  []uint8 // per site slot: the predicted outcome bit
}

// NewStaticBias returns a profile-guided static predictor. The map gives
// each branch PC its majority direction.
func NewStaticBias(bias map[uint64]bool) *StaticBias {
	s := newStaticBias(core.NewSites(bias))
	for pc, dir := range bias {
		s.dirs[s.sites.Slot(pc)] = uint8(bit(dir))
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
			s.dirs[slot] = uint8(bit(p.TakenRate() >= 0.5))
		}
	}
	return s
}

func newStaticBias(sites core.Sites) *StaticBias {
	s := &StaticBias{sites: sites, dirs: make([]uint8, sites.Len())}
	for i := range s.dirs {
		s.dirs[i] = 1
	}
	return s
}

// Name implements Predictor.
func (s *StaticBias) Name() string { return "StaticBias" }

// Predict implements Predictor.
func (s *StaticBias) Predict(pc uint64) bool {
	if slot := s.sites.Slot(pc); slot >= 0 {
		return s.dirs[slot] == 1
	}
	return true
}

// Update implements Predictor.
func (s *StaticBias) Update(pc uint64, taken bool) {}

// SweepChunk implements ChunkSweeper with the shape of GAs.SweepChunk:
// each dirs word read once, the miss bit prediction^t collected in a
// register and OR-ed into wrong once per 64 events.
func (s *StaticBias) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	sites, pred := &s.sites, s.dirs
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := d >> (uint(j) & 63) & 1
			p := uint64(1)
			if slot := sites.Slot(pc); slot >= 0 {
				p = uint64(pred[slot])
			}
			miss |= (p ^ t) << (uint(j) & 63)
		}
		wrong[base>>6] |= miss
	}
}

// SizeBits implements Predictor. Profiled hints live in the binary, not
// predictor hardware, so the cost is zero table bits.
func (s *StaticBias) SizeBits() int64 { return 0 }

// Release drops the per-site hints, which are sized by the input's
// sites and not recycled.
func (s *StaticBias) Release() { s.dirs = nil }

// LastTime predicts that each branch repeats its previous outcome (a
// 1-bit-per-entry table) — the zero-history behaviour the paper uses to
// explain why transition classes 9-10 are pathological without history.
type LastTime struct {
	bits []uint8 // the last outcome bit per entry
	mask uint64
}

// NewLastTime returns a last-time predictor with 2^bits entries.
func NewLastTime(bits int) *LastTime {
	return &LastTime{bits: byteSlab.Get(bits), mask: (1 << uint(bits)) - 1}
}

// Name implements Predictor.
func (l *LastTime) Name() string { return "LastTime" }

// Predict implements Predictor.
func (l *LastTime) Predict(pc uint64) bool { return l.bits[pcIndex(pc)&l.mask] == 1 }

// Update implements Predictor.
func (l *LastTime) Update(pc uint64, taken bool) { l.bits[pcIndex(pc)&l.mask] = uint8(bit(taken)) }

// SweepChunk implements ChunkSweeper with the shape of GAs.SweepChunk.
func (l *LastTime) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	last, mask := l.bits, l.mask
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := d >> (uint(j) & 63) & 1
			i := pcIndex(pc) & mask
			miss |= (uint64(last[i]) ^ t) << (uint(j) & 63)
			last[i] = uint8(t)
		}
		wrong[base>>6] |= miss
	}
}

// SizeBits implements Predictor.
func (l *LastTime) SizeBits() int64 { return int64(len(l.bits)) }

// Release returns the table to its slab.
func (l *LastTime) Release() { byteSlab.Put(&l.bits) }

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

// SweepChunk implements ChunkSweeper with the shape of GAs.SweepChunk.
func (b *Bimodal) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	pht, mask := b.pht.counters, b.pht.mask
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := d >> (uint(j) & 63) & 1
			miss |= (train(pht, pcIndex(pc)&mask, t) ^ t) << (uint(j) & 63)
		}
		wrong[base>>6] |= miss
	}
}

// SizeBits implements Predictor.
func (b *Bimodal) SizeBits() int64 { return b.pht.SizeBits() }

// Release returns the PHT to its slab.
func (b *Bimodal) Release() { b.pht.Release() }

// bimodalCols are a Bimodal's table and mask, hoisted into the locals of
// a composite's chunk kernel.
type bimodalCols struct {
	pht  []Counter2
	mask uint64
}

func (b *Bimodal) cols() bimodalCols { return bimodalCols{pht: b.pht.counters, mask: b.pht.mask} }

// step is the bimodal step on address bits a and outcome bit t; it
// returns the prediction bit.
func (c bimodalCols) step(a, t uint64) uint64 { return train(c.pht, a&c.mask, t) }

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

// SweepChunk implements ChunkSweeper with the shape of GAs.SweepChunk;
// the history lives in a register for the chunk.
func (g *GShare) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	gc, ghr := g.cols(), g.ghr
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := d >> (uint(j) & 63) & 1
			miss |= (gc.step(pcIndex(pc), ghr, t) ^ t) << (uint(j) & 63)
			ghr = ghr<<1 | t
		}
		wrong[base>>6] |= miss
	}
	g.ghr = ghr
}

// gshareCols are a GShare's table and masks, hoisted into a chunk
// kernel's locals; the kernel keeps the history itself.
type gshareCols struct {
	pht        []Counter2
	mask, hist uint64
}

func (g *GShare) cols() gshareCols {
	return gshareCols{pht: g.pht.counters, mask: g.pht.mask, hist: g.mask}
}

// step trains the counter at address bits a under history ghr toward t
// and returns its prediction bit.
func (c gshareCols) step(a, ghr, t uint64) uint64 {
	return train(c.pht, (a^ghr&c.hist)&c.mask, t)
}

// SizeBits implements Predictor.
func (g *GShare) SizeBits() int64 { return g.pht.SizeBits() + int64(g.k) }

// Release returns the PHT to its slab.
func (g *GShare) Release() { g.pht.Release() }

// Agree stores a per-branch bias bit and lets gshare-indexed counters vote
// on whether the branch will agree with its bias (Sprangle et al.), turning
// destructive PHT interference into neutral or constructive interference.
// The bias is set by the branch's first observed outcome.
type Agree struct {
	inner *GShare
	// bias holds one entry per bias slot: 0 until the slot's first
	// outcome b, then 2|b.
	bias     []uint8
	biasMask uint64
}

// NewAgree returns an agree predictor with 2^phtBits agreement counters,
// history length k, and 2^biasBits first-time bias bits.
func NewAgree(phtBits, k, biasBits int) *Agree {
	return &Agree{
		inner:    NewGShare(phtBits, k),
		bias:     byteSlab.Get(biasBits),
		biasMask: (1 << uint(biasBits)) - 1,
	}
}

// Name implements Predictor.
func (a *Agree) Name() string { return fmt.Sprintf("Agree(%d,k=%d)", a.inner.phtBits, a.inner.k) }

// Predict implements Predictor.
func (a *Agree) Predict(pc uint64) bool {
	i := pcIndex(pc) & a.biasMask
	bias := true
	if a.bias[i] != 0 {
		bias = a.bias[i]&1 == 1
	}
	agree := a.inner.pht.Predict(a.inner.index(pc))
	return agree == bias
}

// Update implements Predictor.
func (a *Agree) Update(pc uint64, taken bool) {
	i := pcIndex(pc) & a.biasMask
	if a.bias[i] == 0 {
		a.bias[i] = 2 | uint8(bit(taken))
	}
	agreed := taken == (a.bias[i]&1 == 1)
	a.inner.pht.Update(a.inner.index(pc), agreed)
	a.inner.ghr <<= 1
	if taken {
		a.inner.ghr |= 1
	}
}

// SweepChunk implements ChunkSweeper with the shape of GAs.SweepChunk.
// The bias entry s is read as integers: seen = s>>1, the predicting
// bias is s's bit when seen and 1 otherwise, and the agreement the
// counter trains on is 1 for a first outcome.
func (a *Agree) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	gc, ghr := a.inner.cols(), a.inner.ghr
	bias, biasMask := a.bias, a.biasMask
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := d >> (uint(j) & 63) & 1
			x := pcIndex(pc)
			s := uint64(bias[x&biasMask])
			unseen := s>>1 ^ 1
			bias[x&biasMask] = uint8(s | (2|t)&-unseen)
			agree := gc.step(x, ghr, (t^s^1|unseen)&1)
			miss |= ((s|unseen)&1 ^ agree ^ 1 ^ t) << (uint(j) & 63)
			ghr = ghr<<1 | t
		}
		wrong[base>>6] |= miss
	}
	a.inner.ghr = ghr
}

// SizeBits implements Predictor.
func (a *Agree) SizeBits() int64 { return a.inner.SizeBits() + int64(len(a.bias)) }

// Release returns the agreement counters and bias bits to their slabs.
func (a *Agree) Release() {
	a.inner.Release()
	byteSlab.Put(&a.bias)
}

// Tournament combines two component predictors with a 2-bit chooser table
// indexed by branch address (McFarling's combining predictor).
type Tournament struct {
	name    string
	a, b    part
	chooser *CounterTable
}

// NewTournament combines a and b; the chooser has 2^chooserBits counters.
// Chooser counter >= 2 selects component a.
func NewTournament(name string, a, b Predictor, chooserBits int) *Tournament {
	return &Tournament{name: name, a: newPart(a), b: newPart(b), chooser: NewCounterTable(chooserBits)}
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

// SweepChunk implements ChunkSweeper. Over the default pair, a PAs
// (k ≥ 1) and a gshare, both components step inline in the shape of
// GAs.SweepChunk: the output is b's bit unless the chooser's bit selects
// a where the two disagree, and the chooser trains toward a's
// correctness through a store masked by that disagreement. Any other
// pair runs sweepSteps.
func (t *Tournament) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	if t.a.pas == nil || t.a.pas.k == 0 || t.b.gshare == nil {
		sweepSteps(t, pcs, dirs, n, wrong)
		return
	}
	pa, gb, ghr := t.a.pas.cols(), t.b.gshare.cols(), t.b.gshare.ghr
	chooser, cmask := t.chooser.counters, t.chooser.mask
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			tb := d >> (uint(j) & 63) & 1
			x := pcIndex(pc)
			ap := pa.step(x, tb)
			bp := gb.step(x, ghr, tb)
			ghr = ghr<<1 | tb
			differ := ap ^ bp
			c := chooser[x&cmask]
			chooser[x&cmask] = c ^ (c^c.next(ap^tb^1))&Counter2(-differ)
			miss |= (bp ^ differ&uint64(c>>1) ^ tb) << (uint(j) & 63)
		}
		wrong[base>>6] |= miss
	}
	t.b.gshare.ghr = ghr
}

// SizeBits implements Predictor.
func (t *Tournament) SizeBits() int64 {
	return t.a.p.SizeBits() + t.b.p.SizeBits() + t.chooser.SizeBits()
}

// Release returns the chooser's and both components' tables to their
// slabs.
func (t *Tournament) Release() {
	t.chooser.Release()
	release(t.a.p)
	release(t.b.p)
}
