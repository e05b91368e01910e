package sim

import (
	"reflect"
	"testing"

	"btr/internal/bpred"
	"btr/internal/core"
	"btr/internal/workload"
)

// The reference simulator is the paper's computation written out
// straight, as the oracle the engine is tested against. It shares no
// code with the engine: no recording, no chunks, no chunk window, no
// scheduler, no class table and no chunk kernel. It profiles the
// workload, classifies the complete profile, then runs the generator a
// second time and steps all 34 PAs/GAs slots serially through
// Predict+Update on every event, attributing each miss to the branch's
// joint class and walking the hard-branch distances as it goes.

// refSink adapts a function to the generator's sink, so the reference
// imports nothing from the trace package either.
type refSink func(pc uint64, taken bool)

func (f refSink) Branch(pc uint64, taken bool) { f(pc, taken) }

// refResult is what the reference measures for one input.
type refResult struct {
	Events  int64
	Sites   int
	Classes core.ClassMap
	Exec    JointCounts
	Miss    [NumKinds][NumHistories]JointCounts
	// Hard bins the distance between consecutive hard (5/5) events:
	// bins 1..window, distances of window or more in the last bin.
	Hard []int64
}

// referenceRun simulates one input at the given scale with window
// hard-distance bins.
func referenceRun(spec workload.Spec, scale float64, window int) *refResult {
	profiler := core.NewProfiler()
	spec.Run(profiler, scale)
	classes := core.Classify(profiler.Profiles())
	res := &refResult{
		Events:  profiler.Events(),
		Sites:   profiler.Sites(),
		Classes: classes,
		Hard:    make([]int64, window+1),
	}

	var bank [NumKinds][NumHistories]bpred.Predictor
	for k := 0; k < NumHistories; k++ {
		pas, gas := bpred.NewPAs(k), bpred.NewGAs(k)
		defer pas.Release()
		defer gas.Release()
		bank[KindPAs][k], bank[KindGAs][k] = pas, gas
	}

	var pos int64
	lastHard := int64(-1)
	spec.Run(refSink(func(pc uint64, taken bool) {
		jc := classes[pc]
		res.Exec[jc.Taken][jc.Transition]++
		for kind := range bank {
			for k, p := range bank[kind] {
				if p.Predict(pc) != taken {
					res.Miss[kind][k][jc.Taken][jc.Transition]++
				}
				p.Update(pc, taken)
			}
		}
		if jc.Hard() {
			if lastHard >= 0 {
				res.Hard[min(pos-lastHard, int64(window))]++
			}
			lastHard = pos
		}
		pos++
	}), scale)
	if pos != res.Events {
		panic("sim: reference: the generator is not deterministic")
	}
	return res
}

// referenceFor runs the reference at cfg's scale and hard-distance
// window.
func referenceFor(spec workload.Spec, cfg Config) *refResult {
	return referenceRun(spec, cfg.Scale, cfg.window())
}

// assertMatchesReference fails unless the engine's result for one input
// equals the reference's bit for bit.
func assertMatchesReference(t *testing.T, label string, want *refResult, got *InputResult) {
	t.Helper()
	name := label + "/" + got.Spec.Name()
	if got.Events != want.Events || got.Sites != want.Sites {
		t.Fatalf("%s: events/sites %d/%d, reference %d/%d", name, got.Events, got.Sites, want.Events, want.Sites)
	}
	if !reflect.DeepEqual(got.Classes, want.Classes) {
		t.Fatalf("%s: class map diverged from the reference", name)
	}
	if got.Exec != want.Exec {
		t.Fatalf("%s: Exec attribution diverged from the reference", name)
	}
	for kind := Kind(0); kind < NumKinds; kind++ {
		for k := 0; k < NumHistories; k++ {
			if got.Miss[kind][k] != want.Miss[kind][k] {
				t.Fatalf("%s: %v k=%d misses diverged: engine total %d, reference %d",
					name, kind, k, got.Miss[kind][k].Total(), want.Miss[kind][k].Total())
			}
		}
	}
	if !reflect.DeepEqual(got.HardDistances.Bins, want.Hard) {
		t.Fatalf("%s: hard distances %v, reference %v", name, got.HardDistances.Bins, want.Hard)
	}
}

// assertSuiteMatchesReference checks every input of a suite run against
// its reference, in suite order, and the suite's sums against theirs.
func assertSuiteMatchesReference(t *testing.T, label string, want []*refResult, got *SuiteResult) {
	t.Helper()
	if len(got.Inputs) != len(want) || len(got.Dropped) != 0 {
		t.Fatalf("%s: %d inputs, %d dropped; want %d and none", label, len(got.Inputs), len(got.Dropped), len(want))
	}
	var exec JointCounts
	var miss [NumKinds][NumHistories]JointCounts
	for i, w := range want {
		assertMatchesReference(t, label, w, got.Inputs[i])
		exec.Add(&w.Exec)
		for kind := range miss {
			for k := range miss[kind] {
				miss[kind][k].Add(&w.Miss[kind][k])
			}
		}
	}
	if got.Exec != exec || got.Miss != miss {
		t.Fatalf("%s: suite sums diverged from the references'", label)
	}
}

// TestReferenceSeesHardBranches keeps the hard-distance check honest:
// vortex must run hard branches at test scale, or every comparison of
// the bins is vacuous.
func TestReferenceSeesHardBranches(t *testing.T) {
	ref := referenceRun(testSpec(t, "vortex", "vortex.lit"), testScale, 8)
	var hard int64
	for _, n := range ref.Hard {
		hard += n
	}
	if hard == 0 {
		t.Fatal("vortex ran no hard branches at test scale")
	}
}
