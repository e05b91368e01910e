package bpred

import "fmt"

// The paper's §3 fixes a 32 KB budget (2^18 bits) for every configuration:
//
//   - GAs: a PHT of 2^17 2-bit counters. For history length k the 17-bit
//     PHT index is k bits of global history with the remaining 17-k bits
//     taken from the branch address.
//   - PAs: a PHT of 2^16 2-bit counters (16 KB), with as much as possible
//     of the remaining 16 KB spent on the per-address branch history table
//     (BHT), restricted to a power-of-two number of entries; that gives
//     2^floor(log2(2^17 / k)) k-bit entries.
//   - k = 0: PAs and GAs degenerate identically to a single table of 2^17
//     2-bit counters indexed by 17 bits of branch address.
//
// MaxHistory bounds the sweep, matching the paper's 0-16.
const (
	// GAsPHTBits is log2 of the GAs pattern history table size.
	GAsPHTBits = 17
	// PAsPHTBits is log2 of the PAs pattern history table size.
	PAsPHTBits = 16
	// BHTBudgetBits is the bit budget for the PAs branch history table.
	BHTBudgetBits = 1 << 17
	// MaxHistory is the largest history length simulated.
	MaxHistory = 16
)

// BHTEntriesLog2 returns log2 of the number of BHT entries the 32 KB
// budget affords for history length k (k >= 1): the largest power of two
// with entries*k <= 2^17.
func BHTEntriesLog2(k int) int {
	if k < 1 {
		panic("bpred: BHTEntriesLog2 requires k >= 1")
	}
	log := 0
	for (1<<(log+1))*k <= BHTBudgetBits {
		log++
	}
	return log
}

// pcIndex extracts the branch-address bits used for indexing. Conditional
// branch instructions are word aligned in the traces, so the two low bits
// carry no information and are dropped, as in sim-bpred.
func pcIndex(pc uint64) uint64 { return pc >> 2 }

// GAs is the global-history two-level adaptive predictor of §3.
type GAs struct {
	k        int
	ghr      uint64 // low k bits hold the global history, newest in bit 0
	histMask uint64
	addrMask uint64
	pht      *CounterTable
}

// NewGAs returns a GAs predictor with history length k in 0..MaxHistory.
func NewGAs(k int) *GAs {
	if k < 0 || k > MaxHistory {
		panic("bpred: GAs history length out of range")
	}
	g := &GAs{
		k:   k,
		pht: NewCounterTable(GAsPHTBits),
	}
	g.histMask = (1 << uint(k)) - 1
	g.addrMask = (1 << uint(GAsPHTBits-k)) - 1
	return g
}

// Name implements Predictor.
func (g *GAs) Name() string { return fmt.Sprintf("GAs(k=%d)", g.k) }

// HistoryLength returns k.
func (g *GAs) HistoryLength() int { return g.k }

func (g *GAs) index(pc uint64) uint64 {
	// k history bits in the low positions, 17-k address bits above them.
	return (pcIndex(pc)&g.addrMask)<<uint(g.k) | (g.ghr & g.histMask)
}

// Predict implements Predictor.
func (g *GAs) Predict(pc uint64) bool { return g.pht.Predict(g.index(pc)) }

// Update implements Predictor.
func (g *GAs) Update(pc uint64, taken bool) {
	g.pht.Update(g.index(pc), taken)
	g.ghr = g.ghr<<1 | bit(taken)
}

// PredictUpdate implements PredictUpdater: the PHT index is computed once
// for the fused predict-then-update step.
func (g *GAs) PredictUpdate(pc uint64, taken bool) bool {
	predicted := g.pht.PredictUpdate(g.index(pc), taken)
	g.ghr = g.ghr<<1 | bit(taken)
	return predicted
}

// SizeBits implements Predictor.
func (g *GAs) SizeBits() int64 { return g.pht.SizeBits() + int64(g.k) }

// SweepChunk runs the fused predict-then-update protocol over one decoded
// trace chunk — pcs and the direction bitmap dirs (event i's outcome is
// bit i&63 of word i>>6) hold n events — OR-ing bit i into wrong for every
// misprediction and leaving wrong's other bits as they were. It is the
// batch hot path of the sweep harness, and no branch in its per-event body
// depends on the trace: each dirs word is read once and the outcome taken
// as an integer bit t, the counter trains through counterNext, the miss
// bit (c>>1)^t collects in a register that is OR-ed into wrong once per 64
// events, and the history shifts as h<<1|t. So the simulated trace's
// hard-to-predict branches do not become host mispredictions.
// Behaviour is identical to n PredictUpdate calls.
func (g *GAs) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	g.ghr = sweepGlobal((*[1 << GAsPHTBits]Counter2)(g.pht.counters),
		g.addrMask, g.histMask, uint(g.k), g.ghr, pcs, dirs, n, wrong)
}

// sweepGlobal is the kernel of GAs.SweepChunk over a 2^17-counter PHT
// indexed by addrMask'd address bits above k bits of the global history
// ghr; it returns the updated history. PAs(0) runs it too, with k = 0 and
// an empty history mask. The PHT comes as an array pointer so that the
// masked index needs no bounds check.
func sweepGlobal(pht *[1 << GAsPHTBits]Counter2, addrMask, histMask uint64, k uint, ghr uint64, pcs, dirs []uint64, n int, wrong []uint64) uint64 {
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := d >> (uint(j) & 63) & 1
			i := ((pcIndex(pc)&addrMask)<<(k&63) | ghr&histMask) & (1<<GAsPHTBits - 1)
			c := pht[i]
			pht[i] = c.next(t)
			miss |= (uint64(c>>1) ^ t) << (uint(j) & 63)
			ghr = ghr<<1 | t
		}
		wrong[base>>6] |= miss
	}
	return ghr
}

// PAs is the per-address-history two-level adaptive predictor of §3. Its
// BHT registers are uint16: k ≤ MaxHistory = 16 and the PHT index reads
// only the low k bits, so the 16 bank slots' tables take a quarter of the
// memory 64-bit registers would (0.75 MiB, not 3 MiB, per input).
type PAs struct {
	k        int
	pht      *CounterTable
	bht      []uint16 // per-address history registers, low k bits live
	bhtMask  uint64
	histMask uint64
	addrMask uint64
	phtBits  int
}

// NewPAs returns a PAs predictor with history length k in 0..MaxHistory.
// k = 0 degenerates to the shared 2^17-counter table, identical to GAs(0).
func NewPAs(k int) *PAs {
	if k < 0 || k > MaxHistory {
		panic("bpred: PAs history length out of range")
	}
	p := &PAs{k: k}
	if k == 0 {
		p.phtBits = GAsPHTBits
		p.pht = NewCounterTable(GAsPHTBits)
		p.addrMask = (1 << GAsPHTBits) - 1
		return p
	}
	p.phtBits = PAsPHTBits
	p.pht = NewCounterTable(PAsPHTBits)
	entriesLog := BHTEntriesLog2(k)
	p.bht = make([]uint16, 1<<uint(entriesLog))
	p.bhtMask = uint64(len(p.bht) - 1)
	p.histMask = (1 << uint(k)) - 1
	p.addrMask = (1 << uint(PAsPHTBits-k)) - 1
	return p
}

// Name implements Predictor.
func (p *PAs) Name() string { return fmt.Sprintf("PAs(k=%d)", p.k) }

// HistoryLength returns k.
func (p *PAs) HistoryLength() int { return p.k }

// BHTEntries returns the number of branch history table entries
// (0 when k == 0 and no BHT exists).
func (p *PAs) BHTEntries() int { return len(p.bht) }

func (p *PAs) index(pc uint64) uint64 {
	if p.k == 0 {
		return pcIndex(pc) & p.addrMask
	}
	hist := uint64(p.bht[pcIndex(pc)&p.bhtMask]) & p.histMask
	return (pcIndex(pc)&p.addrMask)<<uint(p.k) | hist
}

// Predict implements Predictor.
func (p *PAs) Predict(pc uint64) bool { return p.pht.Predict(p.index(pc)) }

// Update implements Predictor.
func (p *PAs) Update(pc uint64, taken bool) {
	p.pht.Update(p.index(pc), taken)
	if p.k == 0 {
		return
	}
	i := pcIndex(pc) & p.bhtMask
	p.bht[i] = p.bht[i]<<1 | uint16(bit(taken))
}

// PredictUpdate implements PredictUpdater: the BHT entry is loaded and the
// PHT index computed once for the fused predict-then-update step.
func (p *PAs) PredictUpdate(pc uint64, taken bool) bool {
	if p.k == 0 {
		return p.pht.PredictUpdate(pcIndex(pc)&p.addrMask, taken)
	}
	i := pcIndex(pc) & p.bhtMask
	hist := uint64(p.bht[i])
	idx := (pcIndex(pc)&p.addrMask)<<uint(p.k) | (hist & p.histMask)
	predicted := p.pht.PredictUpdate(idx, taken)
	p.bht[i] = uint16(hist<<1 | bit(taken))
	return predicted
}

// SizeBits implements Predictor.
func (p *PAs) SizeBits() int64 {
	return p.pht.SizeBits() + int64(len(p.bht))*int64(p.k)
}

// SweepChunk is the batch fused step over one decoded trace chunk, with
// the same branch-free body and OR-into-wrong contract as GAs.SweepChunk;
// the history it shifts is the BHT entry of the event's address. k = 0
// runs the GAs(0) kernel. Behaviour is identical to n PredictUpdate calls.
func (p *PAs) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	if p.k == 0 {
		sweepGlobal((*[1 << GAsPHTBits]Counter2)(p.pht.counters), p.addrMask, 0, 0, 0, pcs, dirs, n, wrong)
		return
	}
	pht := (*[1 << PAsPHTBits]Counter2)(p.pht.counters)
	bht, bhtMask := p.bht, p.bhtMask
	addrMask, histMask, k := p.addrMask, p.histMask, uint(p.k)&63
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := d >> (uint(j) & 63) & 1
			a := pcIndex(pc)
			h := uint64(bht[a&bhtMask])
			i := ((a&addrMask)<<k | h&histMask) & (1<<PAsPHTBits - 1)
			c := pht[i]
			pht[i] = c.next(t)
			miss |= (uint64(c>>1) ^ t) << (uint(j) & 63)
			bht[a&bhtMask] = uint16(h<<1 | t)
		}
		wrong[base>>6] |= miss
	}
}

// pasCols are a PAs(k ≥ 1)'s tables and masks, hoisted into the locals
// of a composite's chunk kernel.
type pasCols struct {
	pht                         *[1 << PAsPHTBits]Counter2
	bht                         []uint16
	bhtMask, addrMask, histMask uint64
	k                           uint
}

func (p *PAs) cols() pasCols {
	return pasCols{
		pht: (*[1 << PAsPHTBits]Counter2)(p.pht.counters),
		bht: p.bht, bhtMask: p.bhtMask, addrMask: p.addrMask, histMask: p.histMask,
		k: uint(p.k) & 63,
	}
}

// step is the PAs step on address bits a and outcome bit t: it trains
// the counter, shifts the branch's history and returns the prediction
// bit.
func (c pasCols) step(a, t uint64) uint64 {
	h := uint64(c.bht[a&c.bhtMask])
	i := ((a&c.addrMask)<<c.k | h&c.histMask) & (1<<PAsPHTBits - 1)
	p := c.pht[i]
	c.pht[i] = p.next(t)
	c.bht[a&c.bhtMask] = uint16(h<<1 | t)
	return uint64(p >> 1)
}

// GAg is the degenerate global predictor whose PHT is indexed purely by k
// bits of global history (Yeh & Patt's GAg), provided as a baseline.
type GAg struct {
	k    int
	ghr  uint64
	mask uint64
	pht  *CounterTable
}

// NewGAg returns a GAg with history length k in 1..GAsPHTBits.
func NewGAg(k int) *GAg {
	if k < 1 || k > GAsPHTBits {
		panic("bpred: GAg history length out of range")
	}
	return &GAg{k: k, mask: (1 << uint(k)) - 1, pht: NewCounterTable(k)}
}

// Name implements Predictor.
func (g *GAg) Name() string { return fmt.Sprintf("GAg(k=%d)", g.k) }

// Predict implements Predictor.
func (g *GAg) Predict(pc uint64) bool { return g.pht.Predict(g.ghr & g.mask) }

// Update implements Predictor.
func (g *GAg) Update(pc uint64, taken bool) {
	g.pht.Update(g.ghr&g.mask, taken)
	g.ghr = g.ghr<<1 | bit(taken)
}

// PredictUpdate implements PredictUpdater.
func (g *GAg) PredictUpdate(pc uint64, taken bool) bool {
	predicted := g.pht.PredictUpdate(g.ghr&g.mask, taken)
	g.ghr = g.ghr<<1 | bit(taken)
	return predicted
}

// SizeBits implements Predictor.
func (g *GAg) SizeBits() int64 { return g.pht.SizeBits() + int64(g.k) }

// PAg keeps per-address history registers but shares a single
// history-indexed PHT (Yeh & Patt's PAg), provided as a baseline.
type PAg struct {
	k       int
	bht     []uint64
	bhtMask uint64
	mask    uint64
	pht     *CounterTable
}

// NewPAg returns a PAg with history length k in 1..GAsPHTBits and
// 2^bhtBits history registers.
func NewPAg(k, bhtBits int) *PAg {
	if k < 1 || k > GAsPHTBits {
		panic("bpred: PAg history length out of range")
	}
	if bhtBits < 0 || bhtBits > 24 {
		panic("bpred: PAg BHT bits out of range")
	}
	return &PAg{
		k:       k,
		bht:     make([]uint64, 1<<uint(bhtBits)),
		bhtMask: (1 << uint(bhtBits)) - 1,
		mask:    (1 << uint(k)) - 1,
		pht:     NewCounterTable(k),
	}
}

// Name implements Predictor.
func (p *PAg) Name() string { return fmt.Sprintf("PAg(k=%d)", p.k) }

// Predict implements Predictor.
func (p *PAg) Predict(pc uint64) bool {
	return p.pht.Predict(p.bht[pcIndex(pc)&p.bhtMask] & p.mask)
}

// Update implements Predictor.
func (p *PAg) Update(pc uint64, taken bool) {
	i := pcIndex(pc) & p.bhtMask
	p.pht.Update(p.bht[i]&p.mask, taken)
	p.bht[i] = p.bht[i]<<1 | bit(taken)
}

// PredictUpdate implements PredictUpdater.
func (p *PAg) PredictUpdate(pc uint64, taken bool) bool {
	i := pcIndex(pc) & p.bhtMask
	hist := p.bht[i]
	predicted := p.pht.PredictUpdate(hist&p.mask, taken)
	p.bht[i] = hist<<1 | bit(taken)
	return predicted
}

// SizeBits implements Predictor.
func (p *PAg) SizeBits() int64 {
	return p.pht.SizeBits() + int64(len(p.bht))*int64(p.k)
}
