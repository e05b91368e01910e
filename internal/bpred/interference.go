package bpred

// Interference instrumentation. The paper's §2/§5 framing — and the whole
// line of Agree/Bi-Mode/Filter work it cites — is about *aliasing*:
// multiple static branches sharing one PHT counter. Classification earns
// its keep by keeping easy branches out of the shared tables, which turns
// destructive aliasing into no aliasing at all. AliasTracker measures
// that effect directly.

// AliasStats summarises PHT sharing over a run.
type AliasStats struct {
	// Updates is the total number of counter updates observed.
	Updates int64
	// Aliased counts updates whose counter was last touched by a
	// different static branch.
	Aliased int64
	// Destructive counts aliased updates that also trained the counter
	// in the opposite direction from its previous update — the case that
	// actively corrupts another branch's state.
	Destructive int64
}

// Add accumulates another run's counts into s, e.g. one input's
// tracker into a suite-wide total.
func (s *AliasStats) Add(o AliasStats) {
	s.Updates += o.Updates
	s.Aliased += o.Aliased
	s.Destructive += o.Destructive
}

// AliasedRate returns Aliased/Updates (0 for an empty run).
func (s AliasStats) AliasedRate() float64 {
	if s.Updates == 0 {
		return 0
	}
	return float64(s.Aliased) / float64(s.Updates)
}

// DestructiveRate returns Destructive/Updates (0 for an empty run).
func (s AliasStats) DestructiveRate() float64 {
	if s.Updates == 0 {
		return 0
	}
	return float64(s.Destructive) / float64(s.Updates)
}

// AliasTracker shadows a PHT's index stream and accumulates AliasStats.
// It stores the last-touching PC and direction per counter.
type AliasTracker struct {
	lastPC []uint64
	// lastDir is 0 for a counter never updated, else 2|d for a last
	// update in direction bit d.
	lastDir []uint8
	mask    uint64
	stats   AliasStats
}

// NewAliasTracker covers a table of 2^bits counters.
func NewAliasTracker(bits int) *AliasTracker {
	n := 1 << uint(bits)
	return &AliasTracker{
		lastPC:  make([]uint64, n),
		lastDir: make([]uint8, n),
		mask:    uint64(n - 1),
	}
}

// Observe records one counter update at index by branch pc with the given
// training direction.
func (a *AliasTracker) Observe(index, pc uint64, taken bool) {
	i := index & a.mask
	a.stats.Updates++
	if a.lastDir[i] != 0 && a.lastPC[i] != pc {
		a.stats.Aliased++
		if a.lastDir[i] != 2|uint8(bit(taken)) {
			a.stats.Destructive++
		}
	}
	a.lastPC[i] = pc
	a.lastDir[i] = 2 | uint8(bit(taken))
}

// Stats returns the accumulated statistics.
func (a *AliasTracker) Stats() AliasStats { return a.stats }

// SweepChunkTracked is SweepChunk that also records every event's
// counter update in tr, exactly as calling tr.Observe(g.Index(pc), pc,
// taken) before each PredictUpdate would. It keeps SweepChunk's shape:
// the aliasing test is integer arithmetic on the tracker's last PC and
// direction byte, and the counts collect in registers.
func (g *GShare) SweepChunkTracked(pcs, dirs []uint64, n int, wrong []uint64, tr *AliasTracker) {
	gc, ghr := g.cols(), g.ghr
	lastPC, lastDir, tmask := tr.lastPC, tr.lastDir, tr.mask
	var aliased, destructive uint64
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := d >> (uint(j) & 63) & 1
			x := pcIndex(pc)
			i := (x ^ ghr&gc.hist) & tmask
			last := uint64(lastDir[i])
			a := last >> 1 & bit(lastPC[i] != pc)
			aliased += a
			destructive += a & (last ^ t)
			lastPC[i], lastDir[i] = pc, uint8(2|t)
			miss |= (gc.step(x, ghr, t) ^ t) << (uint(j) & 63)
			ghr = ghr<<1 | t
		}
		wrong[base>>6] |= miss
	}
	g.ghr = ghr
	tr.stats.Updates += int64(n)
	tr.stats.Aliased += int64(aliased)
	tr.stats.Destructive += int64(destructive)
}

// Index exposes GShare's PHT index computation for interference analysis.
func (g *GShare) Index(pc uint64) uint64 { return g.index(pc) }

// Index exposes GAs's PHT index computation for interference analysis.
func (g *GAs) Index(pc uint64) uint64 { return g.index(pc) }

// Index exposes PAs's PHT index computation for interference analysis.
func (p *PAs) Index(pc uint64) uint64 { return p.index(pc) }
