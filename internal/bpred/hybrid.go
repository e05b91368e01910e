package bpred

import (
	"btr/internal/core"
)

// ClassHybrid is a profile-classification-guided hybrid predictor in the
// style of §5.4: every static branch is steered to a component according
// to its (taken, transition) class from a profiling run:
//
//   - taken classes 0/10 (always one direction): a profiled static
//     prediction, costing no predictor state at all;
//   - other low-transition branches (transition classes 0-1, e.g. long
//     runs of taken then not-taken): a small counter table — the paper's
//     observation that "such a branch can be well predicted using only a
//     one-bit counter";
//   - alternating branches (transition classes 9-10): a short per-address
//     history, which is near perfect where zero history is pathological;
//   - everything else: the longest-affordable-history component.
//
// Keeping the easy branches out of the pattern history tables is also what
// removes interference. Branches never seen during profiling fall back to
// the long-history component.
type ClassHybrid struct {
	name  string
	sites core.Sites
	// steer holds each site's component (a comp* id) and, for static
	// sites, the profiled direction in steerTaken. Sites outside the
	// classification steer to the long-history component (id 0).
	steer []uint8
	parts [4]part // indexed by component id; parts[compStatic] is unused
}

// Component ids of a ClassHybrid steering byte.
const (
	compLong uint8 = iota
	compStatic
	compBias
	compShort

	compMask   = 3
	steerTaken = 1 << 2
)

// HybridComponents selects the dynamic components of a ClassHybrid.
// Nil fields get sensible defaults.
type HybridComponents struct {
	// BiasTable handles low-transition, non-extreme-bias branches.
	// Default: a 2^12-counter bimodal table.
	BiasTable Predictor
	// Short handles the alternating classes. Default: PAs with the
	// default policy's short history.
	Short Predictor
	// Long handles everything else. Default: gshare sized to the paper's
	// budget with the policy's long history.
	Long Predictor
}

func (c HybridComponents) withDefaults() HybridComponents {
	if c.BiasTable == nil {
		c.BiasTable = NewBimodal(12)
	}
	if c.Short == nil {
		c.Short = NewPAs(core.DefaultPolicy.ShortHistoryMax)
	}
	if c.Long == nil {
		c.Long = NewGShare(GAsPHTBits, core.DefaultPolicy.LongHistory)
	}
	return c
}

// NewTransitionHybrid builds the paper's proposed hybrid from a profiling
// pass: steering derives from the joint (taken, transition) class, and
// each statically-predicted branch uses its profiled majority direction.
func NewTransitionHybrid(classes core.ClassMap, profiles map[uint64]*core.Profile, comp HybridComponents) *ClassHybrid {
	return NewTransitionHybridTable(core.NewClassTable(classes), profiles, comp)
}

// NewTransitionHybridTable is NewTransitionHybrid over a class table
// already built for the input, which the hybrid shares read-only.
func NewTransitionHybridTable(tbl *core.ClassTable, profiles map[uint64]*core.Profile, comp HybridComponents) *ClassHybrid {
	return newClassHybrid("TransitionHybrid", tbl, profiles, comp, false)
}

// NewTakenHybrid builds the Chang-style hybrid that classifies by taken
// rate only: taken classes 0 and 10 go static, everything else goes to the
// long-history component. It is the baseline §4.2 compares against.
func NewTakenHybrid(classes core.ClassMap, profiles map[uint64]*core.Profile, comp HybridComponents) *ClassHybrid {
	return NewTakenHybridTable(core.NewClassTable(classes), profiles, comp)
}

// NewTakenHybridTable is NewTakenHybrid over a prebuilt class table.
func NewTakenHybridTable(tbl *core.ClassTable, profiles map[uint64]*core.Profile, comp HybridComponents) *ClassHybrid {
	return newClassHybrid("TakenHybrid", tbl, profiles, comp, true)
}

func newClassHybrid(name string, tbl *core.ClassTable, profiles map[uint64]*core.Profile, comp HybridComponents, takenOnly bool) *ClassHybrid {
	comp = comp.withDefaults()
	h := &ClassHybrid{name: name, sites: tbl.Sites, steer: make([]uint8, tbl.Len())}
	h.parts[compBias] = newPart(comp.BiasTable)
	h.parts[compShort] = newPart(comp.Short)
	h.parts[compLong] = newPart(comp.Long)
	for s := range h.steer {
		if f := tbl.At(s); f != core.Unclassified {
			h.steer[s] = route(f, takenOnly)
		}
	}
	// A static site predicts its profiled majority direction, taken when
	// it has no profile.
	for pc, p := range profiles {
		if s := tbl.Slot(pc); s >= 0 && h.steer[s] == compStatic|steerTaken && p.TakenRate() < 0.5 {
			h.steer[s] = compStatic
		}
	}
	return h
}

// route returns the steering byte for a flat joint class: a static
// route starts out predicting taken.
func route(f uint8, takenOnly bool) uint8 {
	taken, trans := f/core.NumClasses, f%core.NumClasses
	extremeBias := taken == 0 || taken == 10
	if takenOnly {
		if extremeBias {
			return compStatic | steerTaken
		}
		return compLong
	}
	switch {
	case extremeBias && trans <= 1:
		return compStatic | steerTaken
	case trans <= 1:
		return compBias
	case trans >= 9:
		return compShort
	default:
		return compLong
	}
}

// Name implements Predictor.
func (h *ClassHybrid) Name() string { return h.name }

// steerOf returns pc's steering byte; unprofiled branches have no
// classification to act on and go to the long-history component.
func (h *ClassHybrid) steerOf(pc uint64) uint8 {
	if s := h.sites.Slot(pc); s >= 0 {
		return h.steer[s]
	}
	return compLong
}

// Predict implements Predictor.
func (h *ClassHybrid) Predict(pc uint64) bool {
	s := h.steerOf(pc)
	if c := s & compMask; c != compStatic {
		return h.parts[c].p.Predict(pc)
	}
	return s&steerTaken != 0
}

// Update implements Predictor. Only the owning component trains on the
// branch: the point of the classification is to keep easy branches out of
// the pattern history tables, freeing those resources (and removing their
// interference) for the hard branches.
func (h *ClassHybrid) Update(pc uint64, taken bool) {
	if c := h.steerOf(pc) & compMask; c != compStatic {
		h.parts[c].p.Update(pc, taken)
	}
}

// PredictUpdate implements PredictUpdater: one steering lookup serves
// the prediction and the owning component's training.
func (h *ClassHybrid) PredictUpdate(pc uint64, taken bool) bool {
	s := h.steerOf(pc)
	if c := s & compMask; c != compStatic {
		return h.parts[c].step(pc, taken)
	}
	return s&steerTaken != 0
}

// SweepChunk implements ChunkSweeper. Over the default components, a
// bimodal bias table, a PAs (k ≥ 1) and a gshare, the owning component
// steps inline in the shape of GAs.SweepChunk, and a static route's
// prediction is its steering bit. The route is a switch: it follows the
// branch site, which the host predicts well, and stepping all three
// components through masked stores measured slower. Any other
// components run sweepSteps.
func (h *ClassHybrid) SweepChunk(pcs, dirs []uint64, n int, wrong []uint64) {
	bias, short, long := h.parts[compBias].bimodal, h.parts[compShort].pas, h.parts[compLong].gshare
	if bias == nil || short == nil || short.k == 0 || long == nil {
		sweepSteps(h, pcs, dirs, n, wrong)
		return
	}
	bc, sc, lc, ghr := bias.cols(), short.cols(), long.cols(), long.ghr
	sites, steer := &h.sites, h.steer
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := d >> (uint(j) & 63) & 1
			r := compLong
			if s := sites.Slot(pc); s >= 0 {
				r = steer[s]
			}
			x := pcIndex(pc)
			var p uint64
			switch r & compMask {
			case compLong:
				p = lc.step(x, ghr, t)
				ghr = ghr<<1 | t
			case compBias:
				p = bc.step(x, t)
			case compShort:
				p = sc.step(x, t)
			default:
				p = uint64(r >> 2)
			}
			miss |= (p ^ t) << (uint(j) & 63)
		}
		wrong[base>>6] |= miss
	}
	long.ghr = ghr
}

// dynamic returns the three dynamic components.
func (h *ClassHybrid) dynamic() [3]Predictor {
	return [3]Predictor{h.parts[compBias].p, h.parts[compShort].p, h.parts[compLong].p}
}

// SizeBits implements Predictor. Static bias hints are profile outputs
// carried in the binary, not predictor state.
func (h *ClassHybrid) SizeBits() int64 {
	var n int64
	for _, p := range h.dynamic() {
		n += p.SizeBits()
	}
	return n
}

// ComponentFor exposes which component a branch is steered to ("static",
// "bias-table", "short-local", "long-history"), for reporting.
func (h *ClassHybrid) ComponentFor(pc uint64) string {
	switch h.steerOf(pc) & compMask {
	case compStatic:
		return "static"
	case compBias:
		return "bias-table"
	case compShort:
		return "short-local"
	default:
		return "long-history"
	}
}
