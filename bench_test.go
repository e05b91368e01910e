package btr

// The benchmark harness: one Benchmark per paper artifact (Table 1-2,
// Figures 1-15, the §4.2 coverage stat, and the §5 ablations), plus
// micro-benchmarks of the substrates.
//
// The per-artifact benchmarks share one suite sweep (computed once at a
// reduced scale so `go test -bench=.` stays laptop-friendly) and measure
// the artifact regeneration itself. To regenerate the paper-scale
// artifacts, run `go run ./cmd/brexp -scale 1.0` instead.

import (
	"io"
	"path/filepath"
	"sync"
	"testing"

	"btr/internal/bpred"
	"btr/internal/core"
	"btr/internal/trace"
)

const benchScale = 0.005

var (
	benchCtxOnce sync.Once
	benchCtx     *ExperimentContext
)

func benchContext(b *testing.B) *ExperimentContext {
	b.Helper()
	benchCtxOnce.Do(func() {
		benchCtx = NewExperimentContext(SimConfig{Scale: benchScale})
		benchCtx.Suite() // pay the sweep before timing starts
	})
	return benchCtx
}

func benchExperiment(b *testing.B, id string) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(ctx, id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "T1") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "T2") }
func BenchmarkCoverage(b *testing.B) { benchExperiment(b, "S1") }
func BenchmarkFig01(b *testing.B)    { benchExperiment(b, "F1") }
func BenchmarkFig02(b *testing.B)    { benchExperiment(b, "F2") }
func BenchmarkFig03(b *testing.B)    { benchExperiment(b, "F3") }
func BenchmarkFig04(b *testing.B)    { benchExperiment(b, "F4") }
func BenchmarkFig05(b *testing.B)    { benchExperiment(b, "F5") }
func BenchmarkFig06(b *testing.B)    { benchExperiment(b, "F6") }
func BenchmarkFig07(b *testing.B)    { benchExperiment(b, "F7") }
func BenchmarkFig08(b *testing.B)    { benchExperiment(b, "F8") }
func BenchmarkFig09(b *testing.B)    { benchExperiment(b, "F9") }
func BenchmarkFig10(b *testing.B)    { benchExperiment(b, "F10") }
func BenchmarkFig11(b *testing.B)    { benchExperiment(b, "F11") }
func BenchmarkFig12(b *testing.B)    { benchExperiment(b, "F12") }
func BenchmarkFig13(b *testing.B)    { benchExperiment(b, "F13") }
func BenchmarkFig14(b *testing.B)    { benchExperiment(b, "F14") }
func BenchmarkFig15(b *testing.B)    { benchExperiment(b, "F15") }

// The ablations run fresh predictor passes per iteration; keep them under
// -bench filters rather than the default set by guarding on -short.
func BenchmarkHybridAblation(b *testing.B)  { benchExperiment(b, "A1") }
func BenchmarkConfidence(b *testing.B)      { benchExperiment(b, "A2") }
func BenchmarkOptimalHistory(b *testing.B)  { benchExperiment(b, "A3") }
func BenchmarkInterference(b *testing.B)    { benchExperiment(b, "A4") }
func BenchmarkImplicitSchemes(b *testing.B) { benchExperiment(b, "A5") }

// BenchmarkAblations measures the §5 predictor ablations A1 and A5 over
// the full suite at scale 0.05 on a GOMAXPROCS scheduler. Each
// iteration renders both on a fresh context, so it times one grid per
// ablation — every input read once, each chunk swept by every row's
// kernel — with A5 running only the four constructors A1 has not
// already run; the suite sweep itself is paid outside the timer. It
// reports bytes and allocations per op: each row's tables come from the
// predictor pools and go back after every input.
func BenchmarkAblations(b *testing.B) {
	s := NewScheduler(0)
	defer s.Close()
	cfg := SimConfig{Scale: 0.05, Sched: s}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := NewExperimentContext(cfg)
		ctx.Suite()
		b.StartTimer()
		for _, id := range []string{"A1", "A5"} {
			if err := RunExperiment(ctx, id, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ablationRowInput is one suite input's pre-decoded chunks with the
// pass-1 artifacts the profile-built rows are constructed from.
type ablationRowInput struct {
	in     *InputResult
	chunks []trace.DecodedChunk
}

var (
	ablationRowsOnce   sync.Once
	ablationRowsInputs []ablationRowInput
	ablationRowsEvents int64
)

// ablationRowsSuite records the suite at scale 0.05 and decodes every
// input's chunks once.
func ablationRowsSuite() ([]ablationRowInput, int64) {
	ablationRowsOnce.Do(func() {
		for _, in := range RunSuite(Workloads(), SimConfig{Scale: 0.05}).Inputs {
			ri := ablationRowInput{in: in}
			for k := range in.Recorded.Chunks() {
				d, err := in.Recorded.DecodeChunk(k)
				if err != nil {
					panic(err)
				}
				ri.chunks = append(ri.chunks, d)
			}
			ablationRowsInputs = append(ablationRowsInputs, ri)
			ablationRowsEvents += in.Events
		}
	})
	return ablationRowsInputs, ablationRowsEvents
}

// ablationRowSweeper is a predictor with its own chunk kernel and
// pooled tables, as every A1/A5 row builds.
type ablationRowSweeper interface {
	Predictor
	bpred.ChunkSweeper
	Release()
}

// ablationRows are the distinct A1/A5 row constructors at the sizes the
// ablations build them. PAs(k=8) and GAs(k=10) are the bank's own slots,
// which A1 reads from the suite sweep; they time the bank kernel the
// other rows are measured against.
var ablationRows = []struct {
	name  string
	build func(in *InputResult) ablationRowSweeper
}{
	{"TransitionHybrid", func(in *InputResult) ablationRowSweeper {
		return bpred.NewTransitionHybridTable(in.Table, in.Profiles, bpred.HybridComponents{})
	}},
	{"TakenHybrid", func(in *InputResult) ablationRowSweeper {
		return bpred.NewTakenHybridTable(in.Table, in.Profiles, bpred.HybridComponents{})
	}},
	{"DynamicClassHybrid", func(*InputResult) ablationRowSweeper {
		return bpred.NewDynamicClassHybrid(13, 64, bpred.HybridComponents{})
	}},
	{"gshare(17,k=12)", func(*InputResult) ablationRowSweeper { return bpred.NewGShare(bpred.GAsPHTBits, 12) }},
	{"Bimodal(17)", func(*InputResult) ablationRowSweeper { return bpred.NewBimodal(bpred.GAsPHTBits) }},
	{"Agree(17,k=10)", func(*InputResult) ablationRowSweeper { return bpred.NewAgree(bpred.GAsPHTBits, 10, 14) }},
	{"Tournament", func(*InputResult) ablationRowSweeper {
		return bpred.NewTournament("Tournament(PAs8,gshare10)", bpred.NewPAs(8), bpred.NewGShare(16, 10), 12)
	}},
	{"StaticBias", func(in *InputResult) ablationRowSweeper { return bpred.NewProfiledStaticBias(in.Table, in.Profiles) }},
	{"LastTime(17)", func(*InputResult) ablationRowSweeper { return bpred.NewLastTime(bpred.GAsPHTBits) }},
	{"BiMode", func(*InputResult) ablationRowSweeper { return bpred.NewBiMode(16, 15, 12) }},
	{"YAGS", func(*InputResult) ablationRowSweeper { return bpred.NewYAGS(16, 14, 8, 12) }},
	{"Filter", func(*InputResult) ablationRowSweeper { return bpred.NewFilter(14, 32, bpred.NewGShare(16, 12)) }},
	{"gskew", func(*InputResult) ablationRowSweeper { return bpred.NewGSkew(16, 12) }},
	{"PAs(k=8)", func(*InputResult) ablationRowSweeper { return bpred.NewPAs(8) }},
	{"GAs(k=10)", func(*InputResult) ablationRowSweeper { return bpred.NewGAs(10) }},
}

// BenchmarkAblationRows times each A1/A5 row's chunk kernel alone, one
// sub-benchmark per row, single-threaded over the pre-decoded chunks of
// the scale-0.05 suite. Each iteration builds the row's predictor per
// input, as the ablation grid does, sweeps that input's chunks and
// releases it; the recording and decoding happen outside the timer.
// ns/event is the per-row figure a kernel change must move.
func BenchmarkAblationRows(b *testing.B) {
	inputs, events := ablationRowsSuite()
	wrong := make([]uint64, (trace.DefaultChunkEvents+63)/64)
	for _, row := range ablationRows {
		b.Run(row.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, ri := range inputs {
					p := row.build(ri.in)
					for _, c := range ri.chunks {
						clear(wrong)
						p.SweepChunk(c.PCs, c.Dirs, c.N, wrong)
					}
					p.Release()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(events)), "ns/event")
		})
	}
}

// BenchmarkSuiteSweepScheduled measures the recorded pipeline on gcc's
// genoutput.i (RunSuite, and RunInput, run nothing else): the profile
// task fans its 34-slot bank sweep out as 33 per-slot chains (PAs(0) is
// GAs(0)) of one-chunk tasks over a decode-once chunk window, so even
// this single-input suite fills every core and never decodes the trace
// twice. It reports bytes and allocations per op: the chains' tables
// come from the predictor pools.
func BenchmarkSuiteSweepScheduled(b *testing.B) {
	b.ReportAllocs()
	benchSweepSuite(b, SimConfig{Scale: 1.0})
}

// BenchmarkSuiteWarm times RunSuite over the scale-0.05 suite on trace
// and profile caches warmed by an untimed run: every input is a
// profile-cache hit, one task publishing the cached result with no
// pass 1 and no sweep. It reports events/op, so a warm path that slid
// back into sweeping shows as ns/op jumping at the same events/op.
func BenchmarkSuiteWarm(b *testing.B) {
	s := NewScheduler(0)
	defer s.Close()
	cfg := SimConfig{Scale: 0.05, Sched: s, Cache: NewTraceCache(0, ""), Profiles: NewProfileCache()}
	specs := Workloads()
	RunSuite(specs, cfg)
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		events += RunSuite(specs, cfg).TotalEvents()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkSuiteSweepStreaming is the out-of-core pipeline on the same
// input: pass 1 streams the recording to a spill file keeping at most
// ~4 KiB of chunk frames resident (the recording is ~30 KiB, so the
// run genuinely pages), and the sweep's chunk window is capped below
// the decoded trace. The gap to BenchmarkSuiteSweepScheduled is the
// price of bounded memory — a page-in per chunk, and chains held within
// the window's depth of the slowest — on a trace that would comfortably
// fit; paper-scale traces have no retained alternative to compare
// against.
func BenchmarkSuiteSweepStreaming(b *testing.B) {
	benchSweepSuite(b, SimConfig{Scale: 1.0, MemBudget: 4 << 10, DecodedBudget: 128 << 10})
}

// BenchmarkSingleInputStreaming is the streaming counterpart of
// BenchmarkSingleInputSaturation: the same ~650k-event input with the
// recording bounded to ~64 KiB resident (vs ~850 KiB encoded) and a
// 1 MiB decoded budget (a window of ~7 of its ~40 decoded chunks).
func BenchmarkSingleInputStreaming(b *testing.B) {
	benchSingleInput(b, SimConfig{Scale: singleInputScale, MemBudget: 64 << 10, DecodedBudget: 1 << 20})
}

// singleInputScale sizes the saturation benchmarks' one input at ~650k
// events (≈40 recorded chunks): big enough that its sweep is a real
// (34 slot × 40 chunk) grid with a visible tail, small enough for CI.
const singleInputScale = 50.0

// BenchmarkSingleInputSaturation is the chunk-axis headline: ONE large
// input (gcc/genoutput.i at 50× registry scale) on GOMAXPROCS workers
// under the (slot × chunk) grid. Every core gets chunk tasks stolen off
// the 34 slot chains, and no task re-decodes the trace.
func BenchmarkSingleInputSaturation(b *testing.B) {
	benchSingleInput(b, SimConfig{Scale: singleInputScale})
}

// BenchmarkBankSweep times the bpred layer alone: the paper's 34-slot
// PAs/GAs bank, each slot swept serially through its SweepChunk kernel
// over the decoded chunks of gcc/genoutput.i at singleInputScale.
// Recording and decoding happen outside the timer; each iteration builds
// the 34 predictors and releases each after its sweep, as the sim sweep
// does per input, so from the second iteration on their tables come
// from the predictor pools.
func BenchmarkBankSweep(b *testing.B) {
	spec, err := FindWorkload("gcc", "genoutput.i")
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewChunkRecorder(trace.DefaultChunkEvents)
	spec.Run(rec, singleInputScale)
	tr := rec.Trace()
	h := trace.NewResidentHandle(tr)
	var chunks []trace.DecodedChunk
	for k := range h.Chunks() {
		d, err := h.DecodeChunk(k)
		if err != nil {
			b.Fatal(err)
		}
		chunks = append(chunks, d)
	}
	const slots = 2 * (bpred.MaxHistory + 1)
	wrong := make([]uint64, (trace.DefaultChunkEvents+63)/64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for slot := 0; slot < slots; slot++ {
			var p ablationRowSweeper
			if k := slot % (bpred.MaxHistory + 1); slot <= bpred.MaxHistory {
				p = bpred.NewPAs(k)
			} else {
				p = bpred.NewGAs(k)
			}
			for _, c := range chunks {
				clear(wrong)
				p.SweepChunk(c.PCs, c.Dirs, c.N, wrong)
			}
			p.Release()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(tr.Events())*slots), "ns/event/slot")
}

func benchSingleInput(b *testing.B, cfg SimConfig) {
	spec, err := FindWorkload("gcc", "genoutput.i")
	if err != nil {
		b.Fatal(err)
	}
	specs := []WorkloadSpec{spec}
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		suite := RunSuite(specs, cfg)
		events += suite.TotalEvents()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

func benchSweepSuite(b *testing.B, cfg SimConfig) {
	spec, err := FindWorkload("gcc", "genoutput.i")
	if err != nil {
		b.Fatal(err)
	}
	specs := []WorkloadSpec{spec}
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		suite := RunSuite(specs, cfg)
		events += suite.TotalEvents()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// --- substrate micro-benchmarks ---

func benchPredictor(b *testing.B, p Predictor) {
	r := uint64(12345)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		pc := 0x400000 + (r%1024)*4
		taken := r&8 != 0
		if p.Predict(pc) != taken {
			_ = taken
		}
		p.Update(pc, taken)
	}
}

func BenchmarkPAsK8(b *testing.B)     { benchPredictor(b, NewPAs(8)) }
func BenchmarkGAsK10(b *testing.B)    { benchPredictor(b, NewGAs(10)) }
func BenchmarkGShareK12(b *testing.B) { benchPredictor(b, NewGShare(17, 12)) }
func BenchmarkBimodal(b *testing.B)   { benchPredictor(b, NewBimodal(17)) }

func BenchmarkTransitionHybrid(b *testing.B) {
	spec, err := FindWorkload("gcc", "genoutput.i")
	if err != nil {
		b.Fatal(err)
	}
	prof := ProfileWorkload(spec, 0.01)
	classes := Classify(prof.Profiles())
	benchPredictor(b, NewTransitionHybrid(classes, prof.Profiles()))
}

func BenchmarkProfiler(b *testing.B) {
	p := NewProfiler()
	r := uint64(999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		p.Branch(0x400000+(r%512)*4, r&4 != 0)
	}
}

func BenchmarkWorkloadCompress(b *testing.B) {
	spec, err := FindWorkload("compress", "bigtest.in")
	if err != nil {
		b.Fatal(err)
	}
	sink := &trace.CountingSink{}
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		events += spec.Run(sink, 0.002)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// traceBenchEvents is one BenchmarkTraceEncode/BenchmarkTraceDecode op:
// the first 1<<16 events (four default chunks) of compress/bigtest.in, a
// real stream whose deltas are mostly one varint byte.
func traceBenchEvents(b *testing.B) []trace.Event {
	spec, err := FindWorkload("compress", "bigtest.in")
	if err != nil {
		b.Fatal(err)
	}
	var rec trace.Recorder
	spec.Run(&rec, 0.05)
	if rec.Len() < 1<<16 {
		b.Fatalf("compress/bigtest.in recorded %d events, want at least %d", rec.Len(), 1<<16)
	}
	return rec.Events[:1<<16]
}

// BenchmarkTraceEncode times BTR2 encoding, one op a pass over
// traceBenchEvents: into resident frames, as a ChunkRecorder keeps
// them, and spilled, as the streaming recorder cuts, checksums and
// writes frames to an unlinked temp file with nothing kept resident.
// The spill file is discarded unsynced, so no fsync is timed.
func BenchmarkTraceEncode(b *testing.B) {
	events := traceBenchEvents(b)
	b.Run("resident", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := trace.NewChunkRecorder(0)
			for _, e := range events {
				rec.Branch(e.PC, e.Taken)
			}
			rec.Trace()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(events))), "ns/event")
	})
	b.Run("spilled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, err := trace.NewStreamRecorder("", 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range events {
				w.Branch(e.PC, e.Taken)
			}
			w.Discard()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(events))), "ns/event")
	})
}

// BenchmarkTraceDecode times one pass of a reader over traceBenchEvents'
// recording, every chunk checksummed and decoded into the reader's
// buffers: from resident frames, and paged in from a spill file.
func BenchmarkTraceDecode(b *testing.B) {
	events := traceBenchEvents(b)
	rec := trace.NewChunkRecorder(0)
	sr, err := trace.NewStreamRecorder(filepath.Join(b.TempDir(), "decode.btr"), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range events {
		rec.Branch(e.PC, e.Taken)
		sr.Branch(e.PC, e.Taken)
	}
	spilled, err := sr.Seal()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		h    *trace.Handle
	}{{"resident", trace.NewResidentHandle(rec.Trace())}, {"spilled", spilled}} {
		b.Run(bc.name, func(b *testing.B) {
			rd := bc.h.NewReader()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Open(bc.h)
				for {
					_, ok, err := rd.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(events))), "ns/event")
		})
	}
}

func BenchmarkClassOf(b *testing.B) {
	var sink core.Class
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = core.ClassOf(float64(i%1000) / 1000)
	}
	_ = sink
}

func BenchmarkCounterTable(b *testing.B) {
	t := bpred.NewCounterTable(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := uint64(i) * 2654435761
		if t.Predict(idx) {
			t.Update(idx, false)
		} else {
			t.Update(idx, true)
		}
	}
}
