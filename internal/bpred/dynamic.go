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
	execs  uint16
	taken  uint16
	trans  uint16
	last   bool
	primed bool

	classified bool
	advice     uint8 // a core.Advice, in a byte to keep entries small
}

// Routes of a DynamicClassHybrid entry: where its advice sends it.
const (
	dynLong = iota
	dynBias
	dynShort
)

// route returns the component index for the entry's current advice;
// unclassified branches go to the long-history component.
func (e *dynEntry) route() int {
	if !e.classified {
		return dynLong
	}
	switch core.Advice(e.advice) {
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
		entries: make([]dynEntry, 1<<uint(tableBits)),
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
	return d.parts[d.entry(pc).route()].p.Predict(pc)
}

// Update implements Predictor: trains the owning component, accumulates
// the monitor counters, and (re)classifies at window boundaries.
func (d *DynamicClassHybrid) Update(pc uint64, taken bool) {
	e := d.entry(pc)
	d.parts[e.route()].p.Update(pc, taken)
	d.monitor(e, taken)
}

// PredictUpdate implements PredictUpdater: one monitor-entry lookup
// serves the routing, the component's fused step and the monitor update.
func (d *DynamicClassHybrid) PredictUpdate(pc uint64, taken bool) bool {
	e := d.entry(pc)
	predicted := d.parts[e.route()].step(pc, taken)
	d.monitor(e, taken)
	return predicted
}

// SweepChunk implements ChunkSweeper.
func (d *DynamicClassHybrid) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	for i := 0; i < n; i++ {
		taken := dirs[i>>6]&(1<<(uint(i)&63)) != 0
		if d.PredictUpdate(pcs[i], taken) != taken {
			wrong[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// monitor accumulates one execution into the entry's window counters and
// reclassifies the branch when the window fills.
func (d *DynamicClassHybrid) monitor(e *dynEntry, taken bool) {
	e.execs++
	if taken {
		e.taken++
	}
	if e.primed && taken != e.last {
		e.trans++
	}
	e.last = taken
	e.primed = true

	if e.execs >= d.window {
		takenRate := float64(e.taken) / float64(e.execs)
		transRate := float64(e.trans) / float64(e.execs-1)
		jc := core.JointClass{
			Taken:      core.ClassOf(takenRate),
			Transition: core.ClassOf(transRate),
		}
		e.advice = uint8(core.Advise(jc))
		e.classified = true
		e.execs, e.taken, e.trans = 0, 0, 0
		e.primed = false
	}
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

// AdviceFor exposes the current dynamic classification of a branch, for
// inspection ("unclassified" during the first window).
func (d *DynamicClassHybrid) AdviceFor(pc uint64) string {
	e := d.entry(pc)
	if !e.classified {
		return "unclassified"
	}
	return core.Advice(e.advice).String()
}
