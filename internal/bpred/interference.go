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
	lastPC  []uint64
	lastDir []bool
	touched []bool
	mask    uint64
	stats   AliasStats
}

// NewAliasTracker covers a table of 2^bits counters.
func NewAliasTracker(bits int) *AliasTracker {
	n := 1 << uint(bits)
	return &AliasTracker{
		lastPC:  make([]uint64, n),
		lastDir: make([]bool, n),
		touched: make([]bool, n),
		mask:    uint64(n - 1),
	}
}

// Observe records one counter update at index by branch pc with the given
// training direction.
func (a *AliasTracker) Observe(index, pc uint64, taken bool) {
	i := index & a.mask
	a.stats.Updates++
	if a.touched[i] && a.lastPC[i] != pc {
		a.stats.Aliased++
		if a.lastDir[i] != taken {
			a.stats.Destructive++
		}
	}
	a.touched[i] = true
	a.lastPC[i] = pc
	a.lastDir[i] = taken
}

// Stats returns the accumulated statistics.
func (a *AliasTracker) Stats() AliasStats { return a.stats }

// Index exposes GShare's PHT index computation for interference analysis.
func (g *GShare) Index(pc uint64) uint64 { return g.index(pc) }

// Index exposes GAs's PHT index computation for interference analysis.
func (g *GAs) Index(pc uint64) uint64 { return g.index(pc) }

// Index exposes PAs's PHT index computation for interference analysis.
func (p *PAs) Index(pc uint64) uint64 { return p.index(pc) }
