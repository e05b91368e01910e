package bpred

import (
	"testing"

	"btr/internal/core"
	"btr/internal/trace"
	"btr/internal/workload"
)

// The ChunkSweeper contract: a chunk kernel must be indistinguishable
// from Predict-then-Update steps. Each implementation is driven against a
// freshly-built twin over the same streams, comparing every prediction.

type testEvent struct {
	pc    uint64
	taken bool
}

// randomStream is n events over 1024 word-aligned sites with random
// outcomes.
func randomStream(n int) []testEvent {
	out := make([]testEvent, n)
	r := uint64(0x1234567)
	for i := range out {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		out[i].pc = 0x400000 + (r%1024)*4
		out[i].taken = r&4 != 0
	}
	return out
}

// personalityStream is n events over 300 sites whose behaviours span the
// joint classes — always/never taken, alternating, long runs, biased and
// random — so every hybrid steering route sees traffic. pcOf places
// site s.
func personalityStream(n int, pcOf func(site uint64) uint64) []testEvent {
	const sites = 300
	var execs [sites]int
	r := newTestRand(99)
	out := make([]testEvent, n)
	for i := range out {
		s := r.next() % sites
		e := execs[s]
		execs[s]++
		var taken bool
		switch s % 6 {
		case 0:
			taken = true
		case 1:
			taken = false
		case 2:
			taken = e%2 == 0
		case 3:
			taken = (e/20)%2 == 0
		case 4:
			taken = r.next()%10 != 0
		default:
			taken = r.next()%2 == 0
		}
		out[i] = testEvent{pcOf(s), taken}
	}
	return out
}

// densePC is the instrumented-workload layout: base + site<<2.
func densePC(site uint64) uint64 { return 0x400000 + site<<2 }

// sparsePC scatters sites across the address space, so site tables
// built over them take the map fallback.
func sparsePC(site uint64) uint64 { return ((site + 1) * 0x9E3779B97F4A7C15) &^ 3 }

// recordedStream records a real workload through a chunk recorder cutting
// 1000-event chunks (not a multiple of 64), returning the events and the
// recording.
func recordedStream(t *testing.T) ([]testEvent, *trace.ChunkedTrace) {
	t.Helper()
	spec, err := workload.Find("gcc", "genoutput.i")
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewChunkRecorder(1000)
	var events []testEvent
	spec.Run(trace.SinkFunc(func(pc uint64, taken bool) {
		rec.Branch(pc, taken)
		events = append(events, testEvent{pc, taken})
	}), 0.01)
	return events, rec.Trace()
}

// profileOf profiles and classifies a stream, as pass 1 does.
func profileOf(events []testEvent) (core.ClassMap, map[uint64]*core.Profile) {
	p := core.NewProfiler()
	for _, ev := range events {
		p.Branch(ev.pc, ev.taken)
	}
	return core.Classify(p.Profiles()), p.Profiles()
}

// allPredictors returns a builder for every predictor in the package —
// each one the ablations build, at their sizes, plus composites over
// custom components (which step through the interface) — with the
// profile-guided ones built from classes and profiles.
func allPredictors(classes core.ClassMap, profiles map[uint64]*core.Profile) map[string]func() Predictor {
	custom := func() HybridComponents {
		return HybridComponents{
			BiasTable: NewLastTime(12),
			Short:     plainOnly{NewGAs(3)},
			Long:      NewAgree(14, 8, 12),
		}
	}
	tbl := core.NewClassTable(classes)
	bias := make(map[uint64]bool, len(profiles))
	for pc, p := range profiles {
		bias[pc] = p.TakenRate() >= 0.5
	}
	return map[string]func() Predictor{
		"PAs(0)":        func() Predictor { return NewPAs(0) },
		"PAs(8)":        func() Predictor { return NewPAs(8) },
		"PAs(16)":       func() Predictor { return NewPAs(16) },
		"GAs(0)":        func() Predictor { return NewGAs(0) },
		"GAs(10)":       func() Predictor { return NewGAs(10) },
		"GAs(16)":       func() Predictor { return NewGAs(16) },
		"GAg(12)":       func() Predictor { return NewGAg(12) },
		"PAg(8)":        func() Predictor { return NewPAg(8, 12) },
		"gshare(17,12)": func() Predictor { return NewGShare(GAsPHTBits, 12) },
		"bimodal(17)":   func() Predictor { return NewBimodal(GAsPHTBits) },
		"lasttime(17)":  func() Predictor { return NewLastTime(GAsPHTBits) },
		"taken":         func() Predictor { return NewAlwaysTaken() },
		"staticbias":    func() Predictor { return NewStaticBias(bias) },
		"staticbias(profiled)": func() Predictor {
			return NewProfiledStaticBias(tbl, profiles)
		},
		"agree(17,10)": func() Predictor { return NewAgree(GAsPHTBits, 10, 14) },
		"tournament": func() Predictor {
			return NewTournament("t", NewPAs(8), NewGShare(16, 10), 12)
		},
		"tournament(custom)": func() Predictor {
			return NewTournament("t", NewLastTime(10), plainOnly{NewGAs(6)}, 10)
		},
		"tournament(shared)": func() Predictor {
			p := NewPAs(4)
			return NewTournament("t", p, p, 10)
		},
		"TransitionHybrid": func() Predictor {
			return NewTransitionHybridTable(tbl, profiles, HybridComponents{})
		},
		"TransitionHybrid(map)": func() Predictor {
			return NewTransitionHybrid(classes, profiles, HybridComponents{})
		},
		"TransitionHybrid(custom)": func() Predictor {
			return NewTransitionHybridTable(tbl, profiles, custom())
		},
		"TakenHybrid": func() Predictor {
			return NewTakenHybridTable(tbl, profiles, HybridComponents{})
		},
		"TakenHybrid(custom)": func() Predictor {
			return NewTakenHybrid(classes, profiles, custom())
		},
		"DynamicClassHybrid": func() Predictor {
			return NewDynamicClassHybrid(13, 64, HybridComponents{})
		},
		"DynamicClassHybrid(w=2,custom)": func() Predictor {
			return NewDynamicClassHybrid(10, 2, custom())
		},
		"BiMode":         func() Predictor { return NewBiMode(16, 15, 12) },
		"YAGS":           func() Predictor { return NewYAGS(16, 14, 8, 12) },
		"Filter":         func() Predictor { return NewFilter(14, 32, NewGShare(16, 12)) },
		"Filter(custom)": func() Predictor { return NewFilter(10, 8, plainOnly{NewGAs(8)}) },
		"gskew":          func() Predictor { return NewGSkew(16, 12) },
	}
}

// ablationKernels are the predictors the §5 ablations build; each must
// bring its own chunk kernel.
var ablationKernels = []string{
	"TransitionHybrid", "TakenHybrid", "DynamicClassHybrid", "gshare(17,12)",
	"PAs(8)", "GAs(10)", "bimodal(17)", "agree(17,10)", "tournament",
	"staticbias(profiled)", "lasttime(17)", "BiMode", "YAGS", "Filter", "gskew",
}

func TestAblationPredictorsHaveKernels(t *testing.T) {
	builders := allPredictors(profileOf(randomStream(100)))
	for _, name := range ablationKernels {
		if _, ok := builders[name]().(ChunkSweeper); !ok {
			t.Errorf("%s: no SweepChunk kernel", name)
		}
	}
}

// testStreams are the synthetic streams every differential test covers.
func testStreams() map[string][]testEvent {
	return map[string][]testEvent{
		"random":      randomStream(20000),
		"personality": personalityStream(20000, densePC),
		"sparse":      personalityStream(20000, sparsePC),
	}
}

// chunkPrefill is OR-ed into every word of wrong before a sweep: a
// kernel must leave those bits set and set only miss bits of its own.
const chunkPrefill = 0x8000000000000001

// checkChunk sweeps one chunk through batch's kernel and the same events
// through scalar's Predict-then-Update steps, and compares the miss
// bitmaps.
func checkChunk(t *testing.T, name string, batch ChunkSweeper, scalar Predictor, pcs, dirs []uint64, n int, base int) {
	t.Helper()
	wrong := make([]uint64, (n+63)/64)
	for w := range wrong {
		wrong[w] = chunkPrefill
	}
	batch.SweepChunk(pcs, dirs, n, wrong)
	for i := 0; i < len(wrong)*64; i++ {
		bit := uint64(1) << (uint(i) & 63)
		got := wrong[i>>6]&bit != 0
		want := chunkPrefill&bit != 0
		if i < n {
			taken := dirs[i>>6]&bit != 0
			miss := Step(scalar, pcs[i], taken) != taken
			want = want || miss
		}
		if got != want {
			t.Fatalf("%s: event %d: batch bit=%v want %v", name, base+i, got, want)
		}
	}
}

// TestSweepChunkMatchesPredictThenUpdate pins the batch protocol:
// SweepChunk over decoded columns must be indistinguishable from
// per-event Predict-then-Update calls, including across chunk boundaries
// (state persists) and over chunks whose length is not a multiple of 64.
func TestSweepChunkMatchesPredictThenUpdate(t *testing.T) {
	for sname, stream := range testStreams() {
		for name, build := range allPredictors(profileOf(stream)) {
			batch, ok := build().(ChunkSweeper)
			if !ok {
				continue
			}
			scalar := build()
			for start := 0; start < len(stream); {
				n := min(97, len(stream)-start)
				pcs := make([]uint64, n)
				dirs := make([]uint64, (n+63)/64)
				for i := 0; i < n; i++ {
					pcs[i] = stream[start+i].pc
					if stream[start+i].taken {
						dirs[i>>6] |= 1 << (uint(i) & 63)
					}
				}
				checkChunk(t, sname+"/"+name, batch, scalar, pcs, dirs, n, start)
				start += n
			}
		}
	}
}

// TestSweepChunkOverRecordedTrace drives every kernel over a real
// workload's recording, chunk by chunk as the ablation grids read it.
func TestSweepChunkOverRecordedTrace(t *testing.T) {
	events, tr := recordedStream(t)
	if tr.Chunks() < 3 {
		t.Fatalf("recording has %d chunks; want several to carry state across", tr.Chunks())
	}
	for name, build := range allPredictors(profileOf(events)) {
		batch, ok := build().(ChunkSweeper)
		if !ok {
			continue
		}
		scalar := build()
		rep := tr.NewReplayer()
		base := 0
		for {
			pcs, dirs, n, ok := rep.NextChunk()
			if !ok {
				break
			}
			checkChunk(t, name, batch, scalar, pcs, dirs, n, base)
			base += n
		}
		if base != len(events) {
			t.Fatalf("%s: swept %d events, recorded %d", name, base, len(events))
		}
	}
}

// TestClassHybridSparseSites: over scattered PCs the class table takes
// its map fallback, and the hybrid steers each branch to the component
// the class map implies, including branches it never profiled.
func TestClassHybridSparseSites(t *testing.T) {
	stream := personalityStream(5000, sparsePC)
	classes, profiles := profileOf(stream)
	tbl := core.NewClassTable(classes)
	if tbl.Dense() {
		t.Fatal("scattered PCs built a dense table; the map fallback is not exercised")
	}
	h := NewTransitionHybridTable(tbl, profiles, HybridComponents{})
	empty := NewTransitionHybrid(core.ClassMap{}, nil, HybridComponents{})
	seen := map[string]bool{}
	for pc, jc := range classes {
		got := h.ComponentFor(pc)
		seen[got] = true
		want := "long-history"
		switch {
		case (jc.Taken == 0 || jc.Taken == 10) && jc.Transition <= 1:
			want = "static"
		case jc.Transition <= 1:
			want = "bias-table"
		case jc.Transition >= 9:
			want = "short-local"
		}
		if got != want {
			t.Errorf("pc %#x class %v: steered to %s, want %s", pc, jc, got, want)
		}
	}
	for _, c := range []string{"static", "bias-table", "short-local", "long-history"} {
		if !seen[c] {
			t.Errorf("no branch steered to %s; the stream does not cover every route", c)
		}
	}
	for _, pc := range []uint64{sparsePC(1000), 0x400001, 0} {
		if got := h.ComponentFor(pc); got != "long-history" {
			t.Errorf("unprofiled pc %#x steered to %s", pc, got)
		}
	}
	if got := empty.ComponentFor(sparsePC(1)); got != "long-history" {
		t.Errorf("empty classification steered to %s", got)
	}
}

// plainOnly hides a predictor's concrete type, so a composite over it
// cannot step its tables inline and its kernel runs sweepSteps.
type plainOnly struct{ p Predictor }

func (w plainOnly) Name() string                 { return w.p.Name() }
func (w plainOnly) Predict(pc uint64) bool       { return w.p.Predict(pc) }
func (w plainOnly) Update(pc uint64, taken bool) { w.p.Update(pc, taken) }
func (w plainOnly) SizeBits() int64              { return w.p.SizeBits() }
