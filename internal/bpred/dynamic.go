package bpred

import (
	"btr/internal/core"
)

// DynamicClassHybrid implements the paper's §6 future-work proposal:
// "It may also be possible to perform classification based on transition
// rate using some form of dynamic counter." Instead of a profiling pass,
// a per-branch monitor table accumulates taken and transition counts over
// a sliding window of executions; once the window fills, the branch is
// classified with the same (taken, transition) policy the static hybrid
// uses, and re-classified every window thereafter so phase changes are
// tracked.
//
// Branches route to the long-history component until first classified
// (the safe default: it handles everything, just with more warmup and
// interference).
type DynamicClassHybrid struct {
	window  uint16
	entries []dynEntry
	mask    uint64
	parts   [3]part // indexed by the entry's route
}

type dynEntry struct {
	execs uint16
	taken uint16
	trans uint16
	// last is 2|b once the current window holds an execution whose
	// outcome bit was b, and 0 before that.
	last uint8

	classified bool
	advice     uint8 // a core.Advice, in a byte to keep entries small
	// route is the component the advice sends the branch to; dynLong
	// until the branch is first classified.
	route uint8
}

// Routes of a DynamicClassHybrid entry: where its advice sends it.
const (
	dynLong = iota
	dynBias
	dynShort
)

// routeOf returns the component index for an advice.
func routeOf(a core.Advice) uint8 {
	switch a {
	case core.AdviseStatic:
		return dynBias
	case core.AdviseShortLocal:
		return dynShort
	default:
		return dynLong
	}
}

// NewDynamicClassHybrid builds the dynamic hybrid with 2^tableBits monitor
// entries and the given classification window (executions per decision;
// 0 selects the default of 64). A window must cover at least two
// executions, since the transition rate counts changes between
// consecutive ones. Nil components get the same defaults as ClassHybrid.
func NewDynamicClassHybrid(tableBits int, window uint16, comp HybridComponents) *DynamicClassHybrid {
	if window == 0 {
		window = 64
	}
	if window < 2 {
		panic("bpred: DynamicClassHybrid window must be 0 (default) or at least 2")
	}
	comp = comp.withDefaults()
	d := &DynamicClassHybrid{
		window:  window,
		entries: dynSlab.Get(tableBits),
		mask:    (1 << uint(tableBits)) - 1,
	}
	d.parts[dynBias] = newPart(comp.BiasTable)
	d.parts[dynShort] = newPart(comp.Short)
	d.parts[dynLong] = newPart(comp.Long)
	return d
}

// Name implements Predictor.
func (d *DynamicClassHybrid) Name() string { return "DynamicClassHybrid" }

func (d *DynamicClassHybrid) entry(pc uint64) *dynEntry {
	return &d.entries[pcIndex(pc)&d.mask]
}

// Predict implements Predictor.
func (d *DynamicClassHybrid) Predict(pc uint64) bool {
	return d.parts[d.entry(pc).route].p.Predict(pc)
}

// Update implements Predictor: trains the owning component, accumulates
// the monitor counters, and (re)classifies at window boundaries.
func (d *DynamicClassHybrid) Update(pc uint64, taken bool) {
	e := d.entry(pc)
	d.parts[e.route].p.Update(pc, taken)
	d.monitor(e, bit(taken))
}

// SweepChunk implements ChunkSweeper. Over the default components it is
// ClassHybrid.SweepChunk's loop with the route read from the branch's
// monitor entry, which then takes the outcome bit; any other components
// run sweepSteps.
func (d *DynamicClassHybrid) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	bias, short, long := d.parts[dynBias].bimodal, d.parts[dynShort].pas, d.parts[dynLong].gshare
	if bias == nil || short == nil || short.k == 0 || long == nil {
		sweepSteps(d, pcs, dirs, n, wrong)
		return
	}
	bc, sc, lc, ghr := bias.cols(), short.cols(), long.cols(), long.ghr
	entries, mask, window := d.entries, d.mask, d.window
	for base := 0; base < n; base += 64 {
		dw := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := dw >> (uint(j) & 63) & 1
			x := pcIndex(pc)
			e := &entries[x&mask]
			var p uint64
			switch e.route {
			case dynLong:
				p = lc.step(x, ghr, t)
				ghr = ghr<<1 | t
			case dynBias:
				p = bc.step(x, t)
			default:
				p = sc.step(x, t)
			}
			if e.observe(t, window) {
				classify(e)
			}
			miss |= (p ^ t) << (uint(j) & 63)
		}
		wrong[base>>6] |= miss
	}
	long.ghr = ghr
}

// monitor accumulates outcome bit t into the entry's window counters and
// reclassifies the branch when the window fills.
func (d *DynamicClassHybrid) monitor(e *dynEntry, t uint64) {
	if e.observe(t, d.window) {
		classify(e)
	}
}

// observe accumulates outcome bit t into the entry's window counters and
// reports whether the window is full.
func (e *dynEntry) observe(t uint64, window uint16) bool {
	e.execs++
	e.taken += uint16(t)
	e.trans += uint16(uint64(e.last) >> 1 & (uint64(e.last) ^ t))
	e.last = uint8(2 | t)
	return e.execs >= window
}

// classify ends the entry's window: the branch takes the advice of its
// window's joint class, and the counters restart.
func classify(e *dynEntry) {
	takenRate := float64(e.taken) / float64(e.execs)
	transRate := float64(e.trans) / float64(e.execs-1)
	jc := core.JointClass{
		Taken:      core.ClassOf(takenRate),
		Transition: core.ClassOf(transRate),
	}
	a := core.Advise(jc)
	e.advice = uint8(a)
	e.route = routeOf(a)
	e.classified = true
	e.execs, e.taken, e.trans, e.last = 0, 0, 0, 0
}

// dynamic returns the three dynamic components.
func (d *DynamicClassHybrid) dynamic() [3]Predictor {
	return [3]Predictor{d.parts[dynBias].p, d.parts[dynShort].p, d.parts[dynLong].p}
}

// SizeBits implements Predictor: component state plus the monitor table
// (three window counters, last/primed/classified flags, 2-bit advice per
// entry).
func (d *DynamicClassHybrid) SizeBits() int64 {
	perEntry := int64(3*16 + 3 + 2)
	n := int64(len(d.entries)) * perEntry
	for _, p := range d.dynamic() {
		n += p.SizeBits()
	}
	return n
}

// Release returns the monitor table and the components' tables to
// their slabs.
func (d *DynamicClassHybrid) Release() {
	dynSlab.Put(&d.entries)
	for _, p := range d.dynamic() {
		release(p)
	}
}

// AdviceFor exposes the current dynamic classification of a branch, for
// inspection ("unclassified" during the first window).
func (d *DynamicClassHybrid) AdviceFor(pc uint64) string {
	e := d.entry(pc)
	if !e.classified {
		return "unclassified"
	}
	return core.Advice(e.advice).String()
}
