package core

import (
	"math"
	"testing"

	"btr/internal/rng"
)

// Metamorphic tests of the metric: each transforms a random outcome
// stream in a way whose effect on every branch's counts and classes is
// known in closed form, and checks Profiler and Classify against that
// law. No expected value comes from the code under test.

type outcome struct {
	pc    uint64
	taken bool
}

// randomStream interleaves events over a few branches, each a two-state
// Markov source with its own bias and stickiness, so taken and
// transition rates spread over every class.
func randomStream(r *rng.Rand, branches, events int) []outcome {
	bias := make([]float64, branches)
	stick := make([]float64, branches)
	last := make([]bool, branches)
	for b := range bias {
		bias[b], stick[b] = r.Float64(), r.Float64()
	}
	out := make([]outcome, events)
	for i := range out {
		b := r.Intn(branches)
		if !r.Bool(stick[b]) {
			last[b] = r.Bool(bias[b])
		}
		out[i] = outcome{pc: 0x4000 + uint64(b)<<2, taken: last[b]}
	}
	return out
}

func profileStream(events []outcome) *Profiler {
	pr := NewProfiler()
	for _, e := range events {
		pr.Branch(e.pc, e.taken)
	}
	return pr
}

// nearClassBoundary reports whether rate lies within a thousandth of a
// class edge, where ClassOf's rounding may break the 10−c symmetry.
func nearClassBoundary(rate float64) bool {
	return math.Abs(math.Mod(rate*1000, 100)-50) <= 1
}

func forEachSeed(t *testing.T, check func(t *testing.T, events []outcome)) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		check(t, randomStream(r, 1+r.Intn(12), 1+r.Intn(3000)))
	}
}

// TestMetamorphicInvert: inverting every outcome keeps each branch's
// executions and transitions, maps Taken to Execs−Taken, keeps the
// transition class, and maps taken class c to 10−c.
func TestMetamorphicInvert(t *testing.T) {
	checked := 0
	forEachSeed(t, func(t *testing.T, events []outcome) {
		inv := make([]outcome, len(events))
		for i, e := range events {
			inv[i] = outcome{e.pc, !e.taken}
		}
		a, b := profileStream(events), profileStream(inv)
		ca, cb := Classify(a.Profiles()), Classify(b.Profiles())
		for pc, p := range a.Profiles() {
			q := b.Profile(pc)
			if q.Execs != p.Execs || q.Transitions != p.Transitions || q.Taken != p.Execs-p.Taken {
				t.Fatalf("pc %#x: inverted %+v from %+v", pc, *q, *p)
			}
			if cb[pc].Transition != ca[pc].Transition {
				t.Fatalf("pc %#x: transition class %d became %d", pc, ca[pc].Transition, cb[pc].Transition)
			}
			if nearClassBoundary(p.TakenRate()) {
				continue
			}
			if cb[pc].Taken != 10-ca[pc].Taken {
				t.Fatalf("pc %#x: taken rate %v class %d inverted to class %d, want %d",
					pc, p.TakenRate(), ca[pc].Taken, cb[pc].Taken, 10-ca[pc].Taken)
			}
			checked++
		}
	})
	if checked == 0 {
		t.Fatal("every branch sat on a class boundary: nothing checked")
	}
}

// TestMetamorphicDouble: repeating every outcome (TTNN…) keeps each
// branch's transitions, doubles its executions and taken count, and
// keeps its taken class.
func TestMetamorphicDouble(t *testing.T) {
	forEachSeed(t, func(t *testing.T, events []outcome) {
		dbl := make([]outcome, 0, 2*len(events))
		for _, e := range events {
			dbl = append(dbl, e, e)
		}
		a, b := profileStream(events), profileStream(dbl)
		ca, cb := Classify(a.Profiles()), Classify(b.Profiles())
		for pc, p := range a.Profiles() {
			q := b.Profile(pc)
			if q.Transitions != p.Transitions || q.Execs != 2*p.Execs || q.Taken != 2*p.Taken {
				t.Fatalf("pc %#x: doubled %+v from %+v", pc, *q, *p)
			}
			if cb[pc].Taken != ca[pc].Taken {
				t.Fatalf("pc %#x: taken class %d became %d", pc, ca[pc].Taken, cb[pc].Taken)
			}
		}
	})
}

// TestMetamorphicConcat: profiling A then B in one Profiler equals
// merging A's and B's separate profiles, plus one transition for each
// branch whose last outcome in A differs from its first in B (the
// boundary pair Merge cannot see).
func TestMetamorphicConcat(t *testing.T) {
	boundaries := 0
	forEachSeed(t, func(t *testing.T, events []outcome) {
		cut := len(events) / 3
		a, b := events[:cut], events[cut:]
		whole := profileStream(events)
		pa, pb := profileStream(a), profileStream(b)

		lastA := map[uint64]bool{}
		for _, e := range a {
			lastA[e.pc] = e.taken
		}
		boundary := map[uint64]int64{}
		seenB := map[uint64]bool{}
		for _, e := range b {
			if !seenB[e.pc] {
				seenB[e.pc] = true
				if last, ok := lastA[e.pc]; ok && last != e.taken {
					boundary[e.pc] = 1
					boundaries++
				}
			}
		}

		for pc, w := range whole.Profiles() {
			var m Profile
			if p := pa.Profile(pc); p != nil {
				m = *p
			}
			if p := pb.Profile(pc); p != nil {
				m.Merge(p)
			}
			if w.Execs != m.Execs || w.Taken != m.Taken || w.Transitions != m.Transitions+boundary[pc] {
				t.Fatalf("pc %#x: whole %+v, merged %+v with %d boundary transitions", pc, *w, m, boundary[pc])
			}
		}
	})
	if boundaries == 0 {
		t.Fatal("no branch changed direction across the cut: the boundary law went unchecked")
	}
}
