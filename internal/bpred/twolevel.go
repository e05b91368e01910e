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
	g.ghr <<= 1
	if taken {
		g.ghr |= 1
	}
}

// PredictUpdate implements PredictUpdater: the PHT index is computed once
// for the fused predict-then-update step.
func (g *GAs) PredictUpdate(pc uint64, taken bool) bool {
	predicted := g.pht.PredictUpdate(g.index(pc), taken)
	g.ghr <<= 1
	if taken {
		g.ghr |= 1
	}
	return predicted
}

// SizeBits implements Predictor.
func (g *GAs) SizeBits() int64 { return g.pht.SizeBits() + int64(g.k) }

// SweepChunk runs the fused predict-then-update protocol over one decoded
// trace chunk — pcs and the direction bitmap dirs (event i's outcome is
// bit i&63 of word i>>6) hold n events — setting bit i of wrong for every
// misprediction. It is the batch hot path of the sweep harness: the loop
// body is fully concrete, and the history register stays in a local.
// Behaviour is identical to n PredictUpdate calls.
func (g *GAs) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	ghr := g.ghr
	for i := 0; i < n; i++ {
		taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
		idx := (pcIndex(pcs[i])&g.addrMask)<<uint(g.k) | (ghr & g.histMask)
		if g.pht.PredictUpdate(idx, taken) != taken {
			wrong[i>>6] |= 1 << (uint(i) & 63)
		}
		ghr <<= 1
		if taken {
			ghr |= 1
		}
	}
	g.ghr = ghr
}

// PAs is the per-address-history two-level adaptive predictor of §3.
type PAs struct {
	k        int
	pht      *CounterTable
	bht      []uint64 // per-address history registers, low k bits live
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
	p.bht = make([]uint64, 1<<uint(entriesLog))
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
	hist := p.bht[pcIndex(pc)&p.bhtMask] & p.histMask
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
	p.bht[i] <<= 1
	if taken {
		p.bht[i] |= 1
	}
}

// PredictUpdate implements PredictUpdater: the BHT entry is loaded and the
// PHT index computed once for the fused predict-then-update step.
func (p *PAs) PredictUpdate(pc uint64, taken bool) bool {
	if p.k == 0 {
		return p.pht.PredictUpdate(pcIndex(pc)&p.addrMask, taken)
	}
	i := pcIndex(pc) & p.bhtMask
	hist := p.bht[i]
	idx := (pcIndex(pc)&p.addrMask)<<uint(p.k) | (hist & p.histMask)
	predicted := p.pht.PredictUpdate(idx, taken)
	hist <<= 1
	if taken {
		hist |= 1
	}
	p.bht[i] = hist
	return predicted
}

// SizeBits implements Predictor.
func (p *PAs) SizeBits() int64 {
	return p.pht.SizeBits() + int64(len(p.bht))*int64(p.k)
}

// SweepChunk is the batch fused step over one decoded trace chunk; see
// GAs.SweepChunk. Behaviour is identical to n PredictUpdate calls.
func (p *PAs) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	if p.k == 0 {
		for i := 0; i < n; i++ {
			taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
			if p.pht.PredictUpdate(pcIndex(pcs[i])&p.addrMask, taken) != taken {
				wrong[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
		bi := pcIndex(pcs[i]) & p.bhtMask
		hist := p.bht[bi]
		idx := (pcIndex(pcs[i])&p.addrMask)<<uint(p.k) | (hist & p.histMask)
		if p.pht.PredictUpdate(idx, taken) != taken {
			wrong[i>>6] |= 1 << (uint(i) & 63)
		}
		hist <<= 1
		if taken {
			hist |= 1
		}
		p.bht[bi] = hist
	}
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
	g.ghr <<= 1
	if taken {
		g.ghr |= 1
	}
}

// PredictUpdate implements PredictUpdater.
func (g *GAg) PredictUpdate(pc uint64, taken bool) bool {
	predicted := g.pht.PredictUpdate(g.ghr&g.mask, taken)
	g.ghr <<= 1
	if taken {
		g.ghr |= 1
	}
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
	p.bht[i] <<= 1
	if taken {
		p.bht[i] |= 1
	}
}

// PredictUpdate implements PredictUpdater.
func (p *PAg) PredictUpdate(pc uint64, taken bool) bool {
	i := pcIndex(pc) & p.bhtMask
	hist := p.bht[i]
	predicted := p.pht.PredictUpdate(hist&p.mask, taken)
	hist <<= 1
	if taken {
		hist |= 1
	}
	p.bht[i] = hist
	return predicted
}

// SizeBits implements Predictor.
func (p *PAg) SizeBits() int64 {
	return p.pht.SizeBits() + int64(len(p.bht))*int64(p.k)
}
