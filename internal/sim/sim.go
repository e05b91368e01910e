// Package sim is the experiment harness: it drives the instrumented
// workloads through a two-pass pipeline (profile, then predict) and
// produces the class-attributed miss statistics behind every figure and
// table in the paper.
//
// Pass 1 runs a workload into a core.Profiler, yielding each static
// branch's taken/transition profile and joint class, while a chunked
// trace.ChunkRecorder captures the stream. Pass 2 replays the recorded
// chunks — not the generator — into a bank of predictors, PAs(k) and
// GAs(k) for every history length k, attributing each hit/miss to the
// branch's joint class from pass 1. Classification uses the *complete*
// run's rates, exactly as the paper's profiling does.
//
// Because every predictor is a pure function of the event stream
// (bpred's contract), the bank sweep shards its (kind, k) slots across
// goroutines, each replaying the recorded trace independently; the
// result is bit-for-bit identical to driving the bank serially.
package sim

import (
	"fmt"
	mathbits "math/bits"
	"runtime"
	"sync"

	"btr/internal/bpred"
	"btr/internal/core"
	"btr/internal/sched"
	"btr/internal/stats"
	"btr/internal/trace"
	"btr/internal/workload"
)

// Kind selects the two-level predictor family of the paper's sweep.
type Kind int

const (
	// KindPAs is the per-address-history two-level predictor.
	KindPAs Kind = iota
	// KindGAs is the global-history two-level predictor.
	KindGAs
	// NumKinds counts the families swept.
	NumKinds
)

// String names the kind as the paper does.
func (k Kind) String() string {
	switch k {
	case KindPAs:
		return "pas"
	case KindGAs:
		return "gas"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// NumHistories is the number of history lengths swept (0..MaxHistory).
const NumHistories = bpred.MaxHistory + 1

// Config controls a run.
type Config struct {
	// Scale multiplies every input's dynamic branch target; 1.0 is the
	// registry default (the paper's Table 1 counts divided by 1000).
	Scale float64
	// Workers bounds concurrent inputs; 0 means GOMAXPROCS.
	Workers int
	// HardDistanceWindow is the number of Figure 15 distance bins; the
	// last bin is open ("8+"). 0 means 8.
	HardDistanceWindow int
	// BankWorkers bounds the goroutines sharding one input's PAs/GAs
	// predictor-bank sweep over its recorded trace; 0 means GOMAXPROCS.
	// It is capped at the number of bank slots (NumKinds*NumHistories).
	BankWorkers int
	// ChunkEvents sets the recorded trace's chunk granularity in events;
	// 0 means trace.DefaultChunkEvents.
	ChunkEvents int
	// NoRecord disables the record-once/replay-many engine: every pass
	// regenerates the workload and the bank runs serially, as the original
	// pipeline did. It exists as the equivalence baseline and for
	// memory-constrained runs; results are bit-for-bit identical.
	NoRecord bool
	// NoSched disables RunSuite's global work-stealing scheduler and
	// falls back to the nested pools (a bounded pool of whole inputs,
	// each sharding its bank across a private pool). It exists as the
	// equivalence baseline; results are bit-for-bit identical. NoRecord
	// implies NoSched, since the scheduler's sweep tasks replay the
	// recorded trace.
	NoSched bool
	// ChunkTasks sets the chunk-axis granularity of the scheduled sweep:
	// each (slot, chunk-range) task advances one predictor slot over this
	// many recorded chunks before re-queueing its chain's continuation,
	// so one input's sweep decomposes into numBankSlots chains of
	// tens-of-microseconds tasks instead of BankWorkers whole-trace
	// batches. 0 means DefaultChunkTasks. Negative restores the PR-2
	// slot-only shape (whole-trace slot-batch tasks, one decode per
	// batch), kept as the equivalence and benchmark baseline. The value
	// is result-invisible: every granularity is bit-for-bit identical
	// (TestChunkedMatrixMatchesLegacy).
	ChunkTasks int
	// Profiles, when non-nil, caches each input's classified pass-1
	// result (profiles, classes, Exec, hard distances, attribution
	// column — everything except Miss) keyed like Cache. A hit skips the
	// profiling replay entirely, not just the generator run, so a second
	// experiment context performs zero pass-1 work. Ignored under
	// NoRecord.
	Profiles *ProfileCache
	// Cache, when non-nil, is consulted before pass 1: a recording with
	// a matching (name, scale, chunk) key replays into the profiler
	// instead of running the generator, and fresh recordings are
	// published for later runs and other experiment contexts. Ignored
	// under NoRecord.
	Cache *trace.Cache
	// MemBudget, when > 0, streams pass 1 through a bounded window
	// instead of retaining the whole recording: events are written to a
	// BTR1 spill file as they are generated (the trace cache's spill
	// directory when one is configured, otherwise an anonymous temp
	// file) and at most about MemBudget bytes of leading chunk columns
	// stay resident; replays page the remainder back in sequentially.
	// Peak recording memory becomes O(MemBudget), not O(trace), and
	// results are bit-for-bit identical (TestStreamedMatrixMatchesRetained).
	// 0 keeps recordings fully resident, the default. Ignored under
	// NoRecord.
	MemBudget int64
	// SnapshotRanges selects the checkpointed intra-slot sweep engine:
	// every bank slot's chunk axis splits into this many ranges, a
	// predict-free warmup chain per slot checkpoints the predictor's
	// state at each range boundary (flat byte-slice snapshots, accounted
	// in MemStats), and the ranges sweep concurrently from restored
	// snapshots — numBankSlots × SnapshotRanges independent tasks, so a
	// single input can saturate more than 34 cores. 0 or 1 keeps the
	// chained engine, the default: the warmup replays all but the last
	// range twice, so checkpointing only wins when cores outnumber
	// slots. The value is result-invisible — every setting is
	// bit-for-bit identical to the chained sweep
	// (TestSnapshotMatrixMatchesChained). Honoured by the scheduled
	// chunked engine only; NoSched, NoRecord and ChunkTasks < 0 ignore
	// it.
	SnapshotRanges int
	// MmapSpill, when true, maps spill-backed recordings into memory and
	// decodes paged chunks straight from the mapping instead of issuing
	// pread calls — replays of paper-scale spill files ride the page
	// cache without per-chunk syscalls. Handles without spill backing
	// (or platforms without mmap) silently keep the pread path. The
	// value is result-invisible.
	MmapSpill bool
	// Sched, when non-nil, is a long-lived shared scheduler the suite
	// run submits onto as one completion-tracked task group instead of
	// building (and stopping) a private scheduler: concurrent RunSuite
	// calls — brserve sessions — interleave their task grids over one
	// worker pool, steal-balancing across requests. The scheduler is
	// left running for the next caller, and Workers is ignored in
	// favour of its worker count. Honoured by the scheduled engine
	// only; NoSched and NoRecord fall back to private pools as before.
	Sched *sched.Scheduler
	// DecodedBudget bounds the decode-once chunk window the scheduled
	// sweep reads through (trace.ChunkWindow): every chunk is decoded
	// once, shared by all the input's sweep chains, and dropped when the
	// last chain passes it. 0 admits the whole recording and reuses the
	// attribution pre-pass's decodes (the pre-streaming behaviour); > 0
	// admits max(2, DecodedBudget / decoded-chunk bytes) chunks ahead of
	// the slowest chain; < 0 admits one chunk at a time. Like MemBudget,
	// the value is result-invisible.
	DecodedBudget int64
}

// chunkWindow is the sweep's decode-once window; its parked
// continuations are scheduler tasks.
type chunkWindow = trace.ChunkWindow[sched.Task]

// sweepWindow builds the chunk window an input's bank sweep reads
// through, declaring one consumer per chain of the engine startSweep
// picks: the 34 slot chains over the whole recording and, under the
// checkpointed engine, 34 warmup chains over every range but the last.
func (c Config) sweepWindow(h *trace.Handle) *chunkWindow {
	n := h.Chunks()
	spans := []trace.Span{{From: 0, To: n, N: numBankSlots}}
	if r := c.snapshotRanges(n); r > 1 {
		b := snapshotBounds(n, r)
		spans = append(spans, trace.Span{From: 0, To: b[len(b)-2], N: numBankSlots})
	}
	return trace.NewChunkWindow[sched.Task](h, c.DecodedBudget, spans...)
}

// checkout serves chunk k to a window consumer, resubmitting any
// continuations the window hands back onto w's own deque (LIFO), so a
// woken chain runs next on the worker that just made its chunk ready.
// ok is false when the consumer parked: cont now waits on the window,
// and the task that unblocks it resubmits it.
func checkout(w *sched.Worker, win *chunkWindow, k int, cont sched.Task) (d trace.DecodedChunk, ok bool, err error) {
	d, ok, woken, err := win.Checkout(k, cont)
	resume(w, woken)
	return d, ok, err
}

// release records that a consumer has passed chunk k, resubmitting
// the continuations the sliding frontier wakes.
func release(w *sched.Worker, win *chunkWindow, k int) {
	resume(w, win.Release(k))
}

func resume(w *sched.Worker, ts []sched.Task) {
	for _, t := range ts {
		w.Submit(t)
	}
}

// cacheKey is the recording's identity for Config.Cache and
// Config.Profiles lookups, in normalised form so configs that spell the
// defaults differently (Scale 0 vs 1, ChunkEvents 0 vs the default)
// share entries in both caches. The spec fingerprint keeps same-named
// custom specs (different target, seed or generator parameters) from
// aliasing each other's recordings.
func (c Config) cacheKey(spec workload.Spec) trace.CacheKey {
	return trace.CacheKey{
		Name:        spec.Name(),
		Fingerprint: spec.Fingerprint(),
		Scale:       c.Scale,
		ChunkEvents: c.ChunkEvents,
	}.Normalised()
}

func (c Config) window() int {
	if c.HardDistanceWindow <= 0 {
		return 8
	}
	return c.HardDistanceWindow
}

// DefaultChunkTasks is the chunk-range width of one scheduled sweep
// task: one recorded chunk (DefaultChunkEvents events) per slot per task
// lands in the tens-of-microseconds range — coarse enough that the
// lock-free deque overhead is noise, fine enough that work stealing can
// level the tail of a single huge input across every core.
const DefaultChunkTasks = 1

func (c Config) chunkTasks() int {
	if c.ChunkTasks == 0 {
		return DefaultChunkTasks
	}
	return c.ChunkTasks
}

// snapshotRanges resolves Config.SnapshotRanges against a recording's
// chunk count: the checkpointed engine only engages when more than one
// non-empty range is possible.
func (c Config) snapshotRanges(nchunks int) int {
	r := c.SnapshotRanges
	if r > nchunks {
		r = nchunks
	}
	return r
}

func (c Config) bankWorkers() int {
	n := c.BankWorkers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if max := int(NumKinds) * NumHistories; n > max {
		n = max
	}
	return n
}

// JointCounts is an 11x11 matrix of per-joint-class event counts.
type JointCounts [core.NumClasses][core.NumClasses]int64

// Add accumulates other into j.
func (j *JointCounts) Add(other *JointCounts) {
	for a := range j {
		for b := range j[a] {
			j[a][b] += other[a][b]
		}
	}
}

// Total sums all cells.
func (j *JointCounts) Total() int64 {
	var sum int64
	for a := range j {
		for b := range j[a] {
			sum += j[a][b]
		}
	}
	return sum
}

// TakenMarginal sums each taken-class row.
func (j *JointCounts) TakenMarginal() [core.NumClasses]int64 {
	var out [core.NumClasses]int64
	for t := range j {
		for tr := range j[t] {
			out[t] += j[t][tr]
		}
	}
	return out
}

// TransitionMarginal sums each transition-class column.
func (j *JointCounts) TransitionMarginal() [core.NumClasses]int64 {
	var out [core.NumClasses]int64
	for t := range j {
		for tr := range j[t] {
			out[tr] += j[t][tr]
		}
	}
	return out
}

// InputResult holds everything measured for one benchmark input.
type InputResult struct {
	Spec   workload.Spec
	Events int64
	Sites  int

	// Profiles is the per-branch profile from pass 1.
	Profiles map[uint64]*core.Profile
	// Classes is the joint classification derived from Profiles.
	Classes core.ClassMap
	// Table is Classes laid out over the input's branch sites, built once
	// per input: attribution and the ablations' steering tables read it
	// instead of the map. Shared read-only.
	Table *core.ClassTable

	// Exec attributes every dynamic execution to its branch's joint class.
	Exec JointCounts
	// Miss[kind][k] attributes mispredictions of predictor kind with
	// history length k to joint classes.
	Miss [NumKinds][NumHistories]JointCounts

	// HardDistances histograms the dynamic-branch distance between
	// consecutive executions of hard (5/5) branches: bins 1..window,
	// last bin open (Figure 15). Bin 0 is unused.
	HardDistances *stats.Histogram

	// Recorded is the input's event stream as captured during pass 1 —
	// a handle that may be memory-resident, spill-backed (under
	// Config.MemBudget), or both; downstream analyses (ablations,
	// confidence studies) replay it instead of re-running the
	// generator. Nil when Config.NoRecord.
	Recorded *trace.Handle

	// Mem reports the input's memory-shape counters (recording
	// footprint, page-ins, chunk-window traffic). Zero under NoRecord.
	Mem MemStats
}

// MemStats describes how an input's trace data moved through the
// bounded-memory pipeline. Counters are cumulative over the input's
// run; the peaks are high-water marks.
type MemStats struct {
	// RecordedBytes is the recording's full encoded footprint (what
	// retaining it all would cost).
	RecordedBytes int64
	// ResidentPeak is the high-water mark of the recording's resident
	// chunk columns (== RecordedBytes when fully retained).
	ResidentPeak int64
	// PageIns counts chunks re-read from the spill file.
	PageIns int64
	// DecodedHits / DecodedRedecodes / DecodedEvicted / DecodedPeak are
	// the sweep's chunk-window counters (see trace.WindowStats):
	// checkouts served by a resident chunk, decodes beyond one per chunk
	// (0 by construction of the window), chunks dropped after their last
	// chain passed them, and the resident decoded high-water mark. Zero
	// when the sweep ran without a window (slot-only and pool engines).
	DecodedHits      int64
	DecodedRedecodes int64
	DecodedEvicted   int64
	DecodedPeak      int64
	// PrefetchHits and PrefetchWasted are always 0. They described the
	// read-ahead prefetcher the decode-once window replaced, and stay so
	// reports that read them keep working.
	PrefetchHits   int64
	PrefetchWasted int64
	// SnapshotCount / SnapshotBytes / SnapshotPeak describe the
	// checkpointed sweep's predictor snapshots (Config.SnapshotRanges):
	// how many were taken, their cumulative size, and the high-water
	// mark of snapshot bytes live at once (each snapshot dies when its
	// range restores it). Zero under the chained engine.
	SnapshotCount int64
	SnapshotBytes int64
	SnapshotPeak  int64
}

// Add accumulates other into m: counters sum, peaks take the max (the
// suite-level peak is per-input, inputs being concurrent).
func (m *MemStats) Add(other *MemStats) {
	m.RecordedBytes += other.RecordedBytes
	m.PageIns += other.PageIns
	m.DecodedHits += other.DecodedHits
	m.DecodedRedecodes += other.DecodedRedecodes
	m.DecodedEvicted += other.DecodedEvicted
	m.SnapshotCount += other.SnapshotCount
	m.SnapshotBytes += other.SnapshotBytes
	if other.ResidentPeak > m.ResidentPeak {
		m.ResidentPeak = other.ResidentPeak
	}
	if other.DecodedPeak > m.DecodedPeak {
		m.DecodedPeak = other.DecodedPeak
	}
	if other.SnapshotPeak > m.SnapshotPeak {
		m.SnapshotPeak = other.SnapshotPeak
	}
}

// Replay drives the input's event stream through sink: the recorded trace
// when present, otherwise a fresh generator run at the given scale.
func (r *InputResult) Replay(sink trace.Sink, scale float64) {
	if r.Recorded != nil {
		r.Recorded.Replay(sink)
		return
	}
	r.Spec.Run(sink, scale)
}

// ProfileInput runs pass 1 only: profile and classify one input.
func ProfileInput(spec workload.Spec, scale float64) (*core.Profiler, core.ClassMap) {
	profiler := core.NewProfiler()
	spec.Run(profiler, scale)
	return profiler, core.Classify(profiler.Profiles())
}

// RunInput runs the full two-pass pipeline for one input.
//
// The default engine records the stream once during the profiling pass
// and drives pass 2 by replaying the recorded chunks, sharding the
// predictor bank across cfg.BankWorkers goroutines. Set cfg.NoRecord to
// regenerate the workload per pass with a serial bank instead; both paths
// produce identical results.
func RunInput(spec workload.Spec, cfg Config) *InputResult {
	if cfg.NoRecord {
		return runInputRegenerate(spec, cfg)
	}
	res, classIdx := profileStage(spec, cfg)

	// Pass 2: shard the (kind, k) bank slots round-robin across workers.
	// Each worker replays the trace chunk-major — one decode per chunk,
	// shared by all of its slots — so decode cost scales with workers, not
	// with the 34 bank slots, and a single-core run decodes the trace
	// exactly once. Each slot's miss counts are a pure function of the
	// recorded stream and land in a distinct cell of res.Miss, so no
	// synchronisation beyond the WaitGroup is needed and the sharding
	// cannot change results.
	misses := make([]missCell, numBankSlots)
	groups := bankGroups(cfg.bankWorkers(), misses)
	var wg sync.WaitGroup
	for _, group := range groups {
		wg.Add(1)
		go func(group []bankSlot) {
			defer wg.Done()
			sweepSlots(group, res.Recorded, classIdx)
		}(group)
	}
	wg.Wait()
	foldMisses(res, misses)
	finalizeMem(res, nil)
	return res
}

// finalizeMem snapshots the input's memory-shape counters off its
// recording handle and (when the sweep used one) chunk window.
func finalizeMem(res *InputResult, win *chunkWindow) {
	h := res.Recorded
	if h == nil {
		return
	}
	res.Mem.RecordedBytes = h.EncodedBytes()
	res.Mem.ResidentPeak = h.ResidentPeak()
	res.Mem.PageIns = h.PageIns()
	if win != nil {
		s := win.Stats()
		res.Mem.DecodedHits = s.Hits
		res.Mem.DecodedRedecodes = max(0, s.Decodes-int64(h.Chunks()))
		res.Mem.DecodedEvicted = s.Released
		res.Mem.DecodedPeak = s.Peak
	}
}

// profileRecorded runs pass 1 — profile and record in one generator run
// — consulting cfg.Cache first: on a hit the cached recording replays
// into the profiler and the generator never runs. Either way the
// returned handle is the input's exact event stream. Under
// cfg.MemBudget the recording streams straight to a spill file with a
// bounded resident prefix instead of being retained whole.
func profileRecorded(spec workload.Spec, cfg Config) (*core.Profiler, *trace.Handle) {
	profiler := core.NewProfiler()
	if cfg.Cache != nil {
		if h, ok := cfg.Cache.GetHandle(cfg.cacheKey(spec)); ok {
			cfg.mmapHandle(h)
			h.Replay(profiler)
			return profiler, h
		}
	}
	if cfg.MemBudget > 0 {
		if h, ok := streamRecord(spec, cfg, profiler); ok {
			cfg.mmapHandle(h)
			return profiler, h
		}
		// The spill file could not be created or sealed: fall back to the
		// fully resident path with a fresh profiler (the failed attempt
		// may have fed it a partial stream).
		profiler = core.NewProfiler()
	}
	recorder := trace.NewChunkRecorder(cfg.ChunkEvents)
	spec.Run(trace.Tee(profiler, recorder), cfg.Scale)
	h := trace.NewResidentHandle(recorder.Trace())
	if cfg.Cache != nil {
		// A failed spill loses persistence only — the recording is
		// still cached in memory — and is counted in the cache stats
		// (CacheStats.SpillFailures) for the CLIs to report.
		_ = cfg.Cache.PutHandle(cfg.cacheKey(spec), h)
	}
	return profiler, h
}

// streamRecord is the bounded-window pass 1: the generator's stream is
// teed into the profiler and a StreamRecorder writing BTR1 directly —
// to the cache's spill path when one exists (so later processes probe
// straight into it), else an anonymous temp file. ok is false when the
// spill backing could not be set up; the caller falls back to
// retaining.
func streamRecord(spec workload.Spec, cfg Config, profiler *core.Profiler) (*trace.Handle, bool) {
	path := ""
	if cfg.Cache != nil {
		path = cfg.Cache.SpillPathFor(cfg.cacheKey(spec))
	}
	sr, err := trace.NewStreamRecorder(path, cfg.ChunkEvents, cfg.MemBudget)
	if err != nil {
		return nil, false
	}
	sealed := false
	defer func() {
		if !sealed {
			sr.Discard() // a panicking generator must not leak the temp file
		}
	}()
	spec.Run(trace.Tee(profiler, sr), cfg.Scale)
	h, err := sr.Seal()
	sealed = true
	if err != nil {
		return nil, false
	}
	if cfg.Cache != nil {
		_ = cfg.Cache.PutHandle(cfg.cacheKey(spec), h)
	}
	return h, true
}

// hardIdx is the 5/5 joint class ("hard" branches), flattened the way
// classIdx stores classes.
const hardIdx = 5*core.NumClasses + 5

// passOne profiles, records and classifies one input: the result shell
// with Exec, distances and the attribution column still empty — those
// belong to the attribution pass (attributeSequential, or the
// scheduler's parallel attribution grid).
func passOne(spec workload.Spec, cfg Config) *InputResult {
	profiler, recorded := profileRecorded(spec, cfg)
	classes := core.Classify(profiler.Profiles())
	return &InputResult{
		Spec:          spec,
		Events:        profiler.Events(),
		Sites:         profiler.Sites(),
		Profiles:      profiler.Profiles(),
		Classes:       classes,
		Table:         core.NewClassTable(classes),
		HardDistances: stats.NewHistogram(cfg.window() + 1),
		Recorded:      recorded,
	}
}

// attributeSequential is the attribution pre-pass: one replay resolves
// each event's joint class through the input's class table, filling
// Exec and the Figure 15 distances and the per-event class column so the
// bank workers index an array instead of resolving the class once per
// slot per event. classIdx must hold res.Recorded.Events() entries.
func attributeSequential(res *InputResult, classIdx []uint8) {
	var pos, lastHard int64
	sawHard := false
	rep := res.Recorded.ChunkReader()
	for {
		pcs, dirs, n, ok := rep.NextChunk()
		if !ok {
			break
		}
		_ = dirs
		for i := 0; i < n; i++ {
			ci := classOf(res.Table, pcs[i])
			res.Exec[ci/core.NumClasses][ci%core.NumClasses]++
			classIdx[pos] = ci
			pos++
			if ci == hardIdx {
				if sawHard {
					res.HardDistances.Add(int(pos - lastHard))
				}
				sawHard = true
				lastHard = pos
			}
		}
	}
}

// profileStage is the non-scheduled first half of RunInput: pass 1
// plus the sequential attribution pre-pass (the scheduler's
// profileTask parallelises attribution along the chunk axis instead).
// It returns the result shell (Exec, classes, distances and the
// recording handle filled in; Miss still zero) and the per-event class
// column the bank sweep attributes against.
//
// cfg.Profiles is consulted first: on a hit the cached shell is copied
// (Miss starts zero in the template, so the copy is sweep-ready), the
// recording it was derived from comes back from cfg.Cache — the
// recording's lifetime stays under the trace cache's LRU budget, not
// pinned by profile entries — and no generator, profiler or attribution
// work runs at all. If the recording was evicted without a spill path
// the hit is unusable (the sweep needs the stream) and the stage falls
// through to a full recompute.
func profileStage(spec workload.Spec, cfg Config) (*InputResult, []uint8) {
	if res, classIdx, ok := profileCached(spec, cfg); ok {
		return res, classIdx
	}
	res := passOne(spec, cfg)
	classIdx := make([]uint8, res.Recorded.Events())
	attributeSequential(res, classIdx)
	if cfg.Profiles != nil && !cfg.NoRecord {
		cfg.Profiles.put(cfg.cacheKey(spec), cfg.window(), res, classIdx)
	}
	return res, classIdx
}

// profileCached serves the profile-cache fast path shared by both
// engines: a cached pass-1 shell plus the recording handle re-fetched
// from the trace cache.
func profileCached(spec workload.Spec, cfg Config) (*InputResult, []uint8, bool) {
	if cfg.Profiles == nil || cfg.Cache == nil || cfg.NoRecord {
		return nil, nil, false
	}
	res, classIdx, ok := cfg.Profiles.get(cfg.cacheKey(spec), cfg.window())
	if !ok {
		return nil, nil, false
	}
	h, ok := cfg.Cache.GetHandle(cfg.cacheKey(spec))
	if !ok {
		return nil, nil, false
	}
	cfg.mmapHandle(h)
	res.Recorded = h
	return res, classIdx, true
}

// mmapHandle applies Config.MmapSpill to a freshly acquired recording
// handle. Failure (no spill backing, unsupported platform, map error)
// silently keeps the pread path: the knob is a paging-strategy hint,
// never a correctness requirement.
func (c Config) mmapHandle(h *trace.Handle) {
	if c.MmapSpill && h.Spilled() {
		_ = h.EnableMmap()
	}
}

// missCell is one bank slot's flat class-attributed miss counters.
type missCell = [core.NumClasses * core.NumClasses]int64

// addCell accumulates src into dst; int64 sums make every reduction
// order bit-identical.
func addCell(dst, src *missCell) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// numBankSlots counts the (kind, k) configurations of the paper's sweep.
const numBankSlots = int(NumKinds) * NumHistories

// bankSlotPredictor builds the predictor for flat bank slot i — the one
// place the slot-index ↔ (kind, k) mapping is realised, shared by the
// batch engine (bankGroups) and the chunk-chain engine (newChunkSweep).
func bankSlotPredictor(i int) bpred.ChunkSweeper {
	kind, k := Kind(i/NumHistories), i%NumHistories
	switch kind {
	case KindPAs:
		return bpred.NewPAs(k)
	case KindGAs:
		return bpred.NewGAs(k)
	default:
		panic(fmt.Sprintf("sim: bank slot %d has no predictor kind", i))
	}
}

// bankGroups builds the predictor bank — PAs(k) and GAs(k) for every
// history length — and splits its slots round-robin into at most
// `groups` batches. Each batch shares one chunk decode per replayed
// chunk (see sweepSlots), so decode cost scales with the batch count,
// not the 34 slots, and a single batch decodes the trace exactly once.
// misses must hold numBankSlots cells; slot i writes only cell i.
func bankGroups(groups int, misses []missCell) [][]bankSlot {
	if groups > numBankSlots {
		groups = numBankSlots
	}
	out := make([][]bankSlot, groups)
	for i := 0; i < numBankSlots; i++ {
		out[i%groups] = append(out[i%groups], bankSlot{p: bankSlotPredictor(i), miss: &misses[i]})
	}
	return out
}

// foldMisses copies the flat per-slot counters into res.Miss.
func foldMisses(res *InputResult, misses []missCell) {
	for i := 0; i < numBankSlots; i++ {
		kind, k := Kind(i/NumHistories), i%NumHistories
		for t := 0; t < core.NumClasses; t++ {
			for tr := 0; tr < core.NumClasses; tr++ {
				res.Miss[kind][k][t][tr] = misses[i][t*core.NumClasses+tr]
			}
		}
	}
}

// classOf resolves pc's flattened joint class for attribution. Every
// recorded PC was profiled, so an unclassified one cannot occur; were it
// to, it counts as class 0/0, the class map's zero value.
func classOf(t *core.ClassTable, pc uint64) uint8 {
	if ci := t.Index(pc); ci != core.Unclassified {
		return ci
	}
	return 0
}

// bankSlot is one predictor configuration of the bank plus its flat
// class-attributed miss counters.
type bankSlot struct {
	p    bpred.ChunkSweeper
	miss *[core.NumClasses * core.NumClasses]int64
}

// sweepSlots replays the recorded trace through a group of bank slots,
// chunk-major: each chunk is decoded (or paged in) once, every slot's
// predictor batch-processes the decoded columns via sweepDecodedChunk,
// attributing set bits to the per-event joint classes in classIdx.
func sweepSlots(slots []bankSlot, recorded *trace.Handle, classIdx []uint8) {
	rep := recorded.ChunkReader()
	var wrong []uint64
	var base int64
	for {
		pcs, dirs, n, ok := rep.NextChunk()
		if !ok {
			return
		}
		if words := (n + 63) / 64; len(wrong) < words {
			wrong = make([]uint64, words)
		}
		d := trace.DecodedChunk{PCs: pcs, Dirs: dirs, N: n, Base: base}
		cls := classIdx[base : base+int64(n)]
		for _, s := range slots {
			sweepDecodedChunk(s.p, &d, cls, s.miss, wrong)
		}
		base += int64(n)
	}
}

// sweepDecodedChunk advances one bank slot over one decoded chunk,
// attributing mispredictions into cell — the shared inner loop of both
// sweep shapes (per-batch-decoded sweepSlots and the chunk-range tasks'
// pre-decoded columns). wrong is the caller's scratch bitmap, at least
// (n+63)/64 words.
//
// The popcount pre-scan totals the chunk's mispredictions first: an
// all-correct chunk — the common case for easy classes at high k —
// skips attribution entirely, and otherwise the running count stops the
// word walk as soon as the last miss has been attributed, bulk-skipping
// the zero tail.
func sweepDecodedChunk(p bpred.ChunkSweeper, d *trace.DecodedChunk, cls []uint8, cell *missCell, wrong []uint64) {
	words := (d.N + 63) / 64
	for w := range wrong[:words] {
		wrong[w] = 0
	}
	p.SweepChunk(d.PCs, d.Dirs, d.N, wrong)
	total := 0
	for w := 0; w < words; w++ {
		total += mathbits.OnesCount64(wrong[w])
	}
	if total == 0 {
		return
	}
	for w := 0; total > 0; w++ {
		bits := wrong[w]
		if bits == 0 {
			continue
		}
		total -= mathbits.OnesCount64(bits)
		for ; bits != 0; bits &= bits - 1 {
			cell[cls[w*64+mathbits.TrailingZeros64(bits)]]++
		}
	}
}

// runInputRegenerate is the original regenerate-twice pipeline: pass 2
// re-runs the workload generator and drives the whole predictor bank
// serially from one sink. RunInput's replay engine must match it
// bit-for-bit (see TestReplayMatchesRegenerate).
func runInputRegenerate(spec workload.Spec, cfg Config) *InputResult {
	profiler, classes := ProfileInput(spec, cfg.Scale)

	res := &InputResult{
		Spec:          spec,
		Events:        profiler.Events(),
		Sites:         profiler.Sites(),
		Profiles:      profiler.Profiles(),
		Classes:       classes,
		Table:         core.NewClassTable(classes),
		HardDistances: stats.NewHistogram(cfg.window() + 1),
	}

	// Build the predictor bank: PAs(k) and GAs(k), k = 0..MaxHistory.
	var pas [NumHistories]*bpred.PAs
	var gas [NumHistories]*bpred.GAs
	for k := 0; k < NumHistories; k++ {
		pas[k] = bpred.NewPAs(k)
		gas[k] = bpred.NewGAs(k)
	}

	var pos, lastHard int64
	sawHard := false
	sink := trace.SinkFunc(func(pc uint64, taken bool) {
		jc := classes[pc]
		t, tr := jc.Taken, jc.Transition
		res.Exec[t][tr]++
		for k := 0; k < NumHistories; k++ {
			if pas[k].Predict(pc) != taken {
				res.Miss[KindPAs][k][t][tr]++
			}
			pas[k].Update(pc, taken)
			if gas[k].Predict(pc) != taken {
				res.Miss[KindGAs][k][t][tr]++
			}
			gas[k].Update(pc, taken)
		}
		pos++
		if jc.Hard() {
			if sawHard {
				res.HardDistances.Add(int(pos - lastHard))
			}
			sawHard = true
			lastHard = pos
		}
	})
	spec.Run(sink, cfg.Scale)
	return res
}
