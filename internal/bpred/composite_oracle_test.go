package bpred

import (
	"fmt"
	"testing"

	"btr/internal/core"
)

// A map-based reference for the composite predictors the §5 ablations
// build over their default components — ClassHybrid under both routing
// policies, Tournament, Filter and DynamicClassHybrid — written from
// their documented rules. It shares no code with the predictors: its
// counters live in maps and saturate through their own if/else, and
// every index is computed here from the component's formula.

// refCounters is 2^bits 2-bit counters, each starting at 1.
type refCounters struct {
	mask uint64
	c    map[uint64]uint8
}

func newRefCounters(bits int) *refCounters {
	return &refCounters{mask: 1<<bits - 1, c: map[uint64]uint8{}}
}

func (r *refCounters) peek(idx uint64) uint8 {
	c, ok := r.c[idx&r.mask]
	if !ok {
		c = 1
	}
	return c
}

// step predicts with the counter at idx, trains it toward taken and
// returns the prediction.
func (r *refCounters) step(idx uint64, taken bool) bool {
	c := r.peek(idx)
	predicted := c >= 2
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	r.c[idx&r.mask] = c
	return predicted
}

// refStepper is one reference predictor's predict-then-update step.
type refStepper interface {
	step(pc uint64, taken bool) bool
}

// refBimodal indexes its counters by pc>>2.
type refBimodal struct{ pht *refCounters }

func (r *refBimodal) step(pc uint64, taken bool) bool { return r.pht.step(pc>>2, taken) }

// refGShare indexes its counters by pc>>2 XOR the low k bits of the
// global history.
type refGShare struct {
	pht *refCounters
	k   uint
	ghr uint64
}

func newRefGShare(phtBits, k int) *refGShare {
	return &refGShare{pht: newRefCounters(phtBits), k: uint(k)}
}

func (r *refGShare) step(pc uint64, taken bool) bool {
	predicted := r.pht.step(pc>>2^r.ghr&(1<<r.k-1), taken)
	r.ghr <<= 1
	if taken {
		r.ghr |= 1
	}
	return predicted
}

// refDefaults are the reference twins of HybridComponents' defaults: a
// 2^12-counter bimodal, PAs at the policy's short history and a
// 2^17-counter gshare at its long history.
func refDefaults() (bias, short, long refStepper) {
	return &refBimodal{newRefCounters(12)},
		newRefTwoLevel(true, core.DefaultPolicy.ShortHistoryMax),
		newRefGShare(17, core.DefaultPolicy.LongHistory)
}

// refClassHybrid steers each branch by its joint class: taken class 0
// or 10 goes static (its profiled majority direction); under the
// transition policy transition classes 0-1 otherwise go to the bias
// table and 9-10 to the short history. Everything else, and every
// branch without a class, goes to the long history. Only the owner
// trains.
type refClassHybrid struct {
	classes           core.ClassMap
	profiles          map[uint64]*core.Profile
	takenOnly         bool
	bias, short, long refStepper
}

func (r *refClassHybrid) step(pc uint64, taken bool) bool {
	jc, ok := r.classes[pc]
	if !ok {
		return r.long.step(pc, taken)
	}
	extreme := jc.Taken == 0 || jc.Taken == 10
	switch {
	case extreme && (r.takenOnly || jc.Transition <= 1):
		p := r.profiles[pc]
		return p == nil || p.TakenRate() >= 0.5
	case r.takenOnly:
		return r.long.step(pc, taken)
	case jc.Transition <= 1:
		return r.bias.step(pc, taken)
	case jc.Transition >= 9:
		return r.short.step(pc, taken)
	default:
		return r.long.step(pc, taken)
	}
}

// refTournament steps both components, outputs a's prediction when the
// pc>>2-indexed chooser counter is at least 2 and b's otherwise, and
// trains the chooser toward a's correctness when exactly one was right.
type refTournament struct {
	a, b    refStepper
	chooser *refCounters
}

func (r *refTournament) step(pc uint64, taken bool) bool {
	ap, bp := r.a.step(pc, taken), r.b.step(pc, taken)
	predicted := bp
	if r.chooser.peek(pc>>2) >= 2 {
		predicted = ap
	}
	if (ap == taken) != (bp == taken) {
		r.chooser.step(pc>>2, ap == taken)
	}
	return predicted
}

// refFilter keeps a run length and direction per pc>>2 slot: a run of at
// least threshold predicts its direction and keeps the branch out of the
// dynamic predictor; a repeat extends the run (to at most 255), a
// transition restarts it at 1 in the new direction.
type refFilter struct {
	mask      uint64
	threshold int
	runs      map[uint64]int
	dirs      map[uint64]bool
	dynamic   refStepper
}

func (r *refFilter) step(pc uint64, taken bool) bool {
	i := pc >> 2 & r.mask
	var predicted bool
	if r.runs[i] >= r.threshold {
		predicted = r.dirs[i]
	} else {
		predicted = r.dynamic.step(pc, taken)
	}
	if r.dirs[i] == taken {
		r.runs[i] = min(r.runs[i]+1, 255)
	} else {
		r.runs[i], r.dirs[i] = 1, taken
	}
	return predicted
}

// refMonitor is one DynamicClassHybrid monitor entry.
type refMonitor struct {
	execs, taken, trans int
	last, primed        bool
	classified          bool
	advice              core.Advice
}

// refDynamic routes by a pc>>2-indexed monitor entry: unclassified
// branches and long-history or non-predictive advice go to the long
// history, static advice to the bias table, short-local advice to the
// short history. Each execution counts into the entry's window; a full
// window classifies the branch by its window's taken and transition
// rates and restarts.
type refDynamic struct {
	mask              uint64
	window            int
	entries           map[uint64]*refMonitor
	bias, short, long refStepper
}

func (r *refDynamic) step(pc uint64, taken bool) bool {
	e := r.entries[pc>>2&r.mask]
	if e == nil {
		e = &refMonitor{}
		r.entries[pc>>2&r.mask] = e
	}
	owner := r.long
	if e.classified {
		switch e.advice {
		case core.AdviseStatic:
			owner = r.bias
		case core.AdviseShortLocal:
			owner = r.short
		}
	}
	predicted := owner.step(pc, taken)
	e.execs++
	if taken {
		e.taken++
	}
	if e.primed && taken != e.last {
		e.trans++
	}
	e.last, e.primed = taken, true
	if e.execs == r.window {
		jc := core.JointClass{
			Taken:      core.ClassOf(float64(e.taken) / float64(e.execs)),
			Transition: core.ClassOf(float64(e.trans) / float64(e.execs-1)),
		}
		*e = refMonitor{classified: true, advice: core.Advise(jc)}
	}
	return predicted
}

// compositeCase pairs a composite's constructor, at the size the
// ablations build it, with its reference twin.
type compositeCase struct {
	name  string
	build func() Predictor
	ref   func() refStepper
}

func compositeCases(classes core.ClassMap, profiles map[uint64]*core.Profile) []compositeCase {
	tbl := core.NewClassTable(classes)
	hybrid := func(takenOnly bool) func() refStepper {
		return func() refStepper {
			bias, short, long := refDefaults()
			return &refClassHybrid{classes: classes, profiles: profiles, takenOnly: takenOnly, bias: bias, short: short, long: long}
		}
	}
	return []compositeCase{
		{"TransitionHybrid", func() Predictor {
			return NewTransitionHybridTable(tbl, profiles, HybridComponents{})
		}, hybrid(false)},
		{"TakenHybrid", func() Predictor {
			return NewTakenHybridTable(tbl, profiles, HybridComponents{})
		}, hybrid(true)},
		{"Tournament", func() Predictor {
			return NewTournament("t", NewPAs(8), NewGShare(16, 10), 12)
		}, func() refStepper {
			return &refTournament{a: newRefTwoLevel(true, 8), b: newRefGShare(16, 10), chooser: newRefCounters(12)}
		}},
		{"Filter", func() Predictor {
			return NewFilter(14, 32, NewGShare(16, 12))
		}, func() refStepper {
			return &refFilter{mask: 1<<14 - 1, threshold: 32, runs: map[uint64]int{}, dirs: map[uint64]bool{},
				dynamic: newRefGShare(16, 12)}
		}},
		{"DynamicClassHybrid", func() Predictor {
			return NewDynamicClassHybrid(13, 64, HybridComponents{})
		}, func() refStepper {
			bias, short, long := refDefaults()
			return &refDynamic{mask: 1<<13 - 1, window: 64, entries: map[uint64]*refMonitor{},
				bias: bias, short: short, long: long}
		}},
	}
}

// TestCompositesMatchReference drives each composite through
// PredictUpdate and through SweepChunk, over every test stream and chunk
// lengths around the 64-event word boundary with garbage past each
// chunk's events and bits preset in wrong, against the reference.
func TestCompositesMatchReference(t *testing.T) {
	streams := testStreams()
	streams["recorded"], _ = recordedStream(t)
	lengths := []int{1, 63, 64, 1000}
	for sname, stream := range streams {
		chunks := make(map[int][]oracleChunk, len(lengths))
		for _, l := range lengths {
			chunks[l] = oracleChunks(stream, l)
		}
		for _, c := range compositeCases(profileOf(stream)) {
			name := sname + "/" + c.name
			ref := c.ref()
			want := make([]bool, len(stream))
			for i, ev := range stream {
				want[i] = ref.step(ev.pc, ev.taken) != ev.taken
			}
			scalar := c.build().(PredictUpdater)
			for i, ev := range stream {
				if miss := scalar.PredictUpdate(ev.pc, ev.taken) != ev.taken; miss != want[i] {
					t.Fatalf("%s: PredictUpdate: event %d miss=%v, reference %v", name, i, miss, want[i])
				}
			}
			for _, l := range lengths {
				checkKernel(t, fmt.Sprintf("%s/chunk %d", name, l), c.build().(ChunkSweeper), chunks[l], want)
			}
		}
	}
}
