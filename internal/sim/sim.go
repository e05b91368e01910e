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
// (bpred's contract), the bank sweep runs each (kind, k) slot as its own
// chain of one-chunk tasks on a work-stealing scheduler; the result is
// bit-for-bit identical to driving the bank serially through
// Predict+Update, which the package's test-side reference simulator does
// as the oracle.
package sim

import (
	"fmt"
	mathbits "math/bits"

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

// Config controls a run. Only Scale and HardDistanceWindow, with the
// specs, decide the results: every other field chooses where bytes live
// or how the work is spread, and leaves every count bit-for-bit
// identical.
type Config struct {
	// Scale multiplies every input's dynamic branch target; 1.0 is the
	// registry default (the paper's Table 1 counts divided by 1000).
	Scale float64
	// Workers sizes the private scheduler a run builds when Sched is
	// nil; 0 means GOMAXPROCS.
	Workers int
	// HardDistanceWindow is the number of Figure 15 distance bins; the
	// last bin is open ("8+"). 0 means 8.
	HardDistanceWindow int
	// ChunkEvents sets the recorded trace's chunk granularity in events;
	// 0 means trace.DefaultChunkEvents.
	ChunkEvents int
	// Profiles, when non-nil, caches each input's whole result
	// (profiles, classes, Exec, Miss, hard distances) keyed like Cache.
	// A hit whose recording Cache still holds skips the profiling replay
	// and the bank sweep, not just the generator run, so a second
	// experiment context performs no pass-1 or sweep work.
	Profiles *ProfileCache
	// Cache, when non-nil, is consulted before pass 1: a recording with
	// a matching (name, scale, chunk) key replays into the profiler
	// instead of running the generator, and fresh recordings are
	// published for later runs and other experiment contexts.
	Cache *trace.Cache
	// MemBudget, when > 0, streams pass 1 through a bounded window
	// instead of retaining the whole recording: events are written to a
	// BTR2 spill file as they are generated (the trace cache's spill
	// directory when one is configured, otherwise an anonymous temp
	// file) and at most about MemBudget bytes of leading chunk frames
	// stay resident; replays page the remainder back in sequentially.
	// Peak recording memory becomes O(MemBudget), not O(trace), and
	// results are bit-for-bit identical (TestStreamedMatrixMatchesRetained).
	// 0 keeps recordings fully resident, the default.
	MemBudget int64
	// Sched, when non-nil, is a long-lived shared scheduler the suite
	// run submits onto as one completion-tracked task group instead of
	// building (and stopping) a private scheduler: concurrent RunSuite
	// calls — brserve sessions — interleave their task grids over one
	// worker pool, steal-balancing across requests. The scheduler is
	// left running for the next caller, and Workers is ignored in
	// favour of its worker count.
	Sched *sched.Scheduler
	// DecodedBudget bounds the decode-once chunk window the scheduled
	// sweep reads through (trace.ChunkWindow): every chunk is decoded
	// once, shared by all the input's sweep chains, and dropped when the
	// last chain passes it. 0 admits the whole recording; > 0 admits
	// max(2, DecodedBudget / decoded-chunk bytes) chunks ahead of the
	// slowest chain; < 0 admits one chunk at a time. Like MemBudget, the
	// value is result-invisible.
	DecodedBudget int64
}

// chunkWindow is the sweep's decode-once window; its parked
// continuations are scheduler tasks.
type chunkWindow = trace.ChunkWindow[sched.Task]

// checkout serves chunk k to a window consumer, resubmitting any
// continuations the window hands back onto w's own queue (newest
// first), so a woken chain runs next on the worker that just made its
// chunk ready.
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

	// Distribution is the input's Table 2 distribution, computed once
	// from Profiles in pass 1 so aggregation sums cells instead of
	// walking the map. Shared read-only.
	Distribution *core.Distribution

	// Exec attributes every dynamic execution to its branch's joint class.
	Exec JointCounts
	// Miss[kind][k] attributes mispredictions of predictor kind with
	// history length k to joint classes. The sweep fills it once; then
	// it is shared read-only, with every profile-cache hit on the input.
	Miss *[NumKinds][NumHistories]JointCounts

	// HardDistances histograms the dynamic-branch distance between
	// consecutive executions of hard (5/5) branches: bins 1..window,
	// last bin open (Figure 15). Bin 0 is unused.
	HardDistances *stats.Histogram

	// Recorded is the input's event stream as captured during pass 1 —
	// a handle that may be memory-resident, spill-backed (under
	// Config.MemBudget), or both; downstream analyses (ablations,
	// confidence studies) replay it instead of re-running the
	// generator.
	Recorded *trace.Handle

	// Mem reports the input's memory-shape counters (recording
	// footprint, page-ins, chunk-window traffic). It is zero on a
	// profile-cache hit, which records, reads and sweeps nothing.
	Mem MemStats

	// pageInsBefore is the recording's lifetime page-in count when this
	// run took it, so Mem.PageIns counts only the page-ins made during
	// the run (a concurrent run over the same recording counts into
	// both).
	pageInsBefore int64
}

// MemStats describes how an input's trace data moved through the
// bounded-memory pipeline. Counters are cumulative over the input's
// run; the peaks are high-water marks.
type MemStats struct {
	// RecordedBytes is the recording's full encoded footprint (what
	// retaining it all would cost).
	RecordedBytes int64 `json:"recorded_bytes"`
	// ResidentPeak is the high-water mark of the recording's resident
	// frames (== RecordedBytes when fully retained).
	ResidentPeak int64 `json:"resident_peak"`
	// PageIns counts chunks the run read back from the spill file.
	PageIns int64 `json:"page_ins"`
	// DecodedHits / DecodedRedecodes / DecodedEvicted / DecodedPeak are
	// the sweep's chunk-window counters (see trace.WindowStats):
	// checkouts served by a resident chunk, decodes beyond one per chunk
	// (0 by construction of the window), chunks dropped after their last
	// chain passed them, and the resident decoded high-water mark.
	DecodedHits      int64 `json:"decoded_hits"`
	DecodedRedecodes int64 `json:"decoded_redecodes"`
	DecodedEvicted   int64 `json:"decoded_evicted"`
	DecodedPeak      int64 `json:"decoded_peak"`
	// PrefetchHits and PrefetchWasted are always 0. They described the
	// read-ahead prefetcher the decode-once window replaced, and stay so
	// reports that read them keep working; they are not on the wire.
	PrefetchHits   int64 `json:"-"`
	PrefetchWasted int64 `json:"-"`
}

// Add accumulates other into m: counters sum, peaks take the max (the
// suite-level peak is per-input, inputs being concurrent).
func (m *MemStats) Add(other *MemStats) {
	m.RecordedBytes += other.RecordedBytes
	m.PageIns += other.PageIns
	m.DecodedHits += other.DecodedHits
	m.DecodedRedecodes += other.DecodedRedecodes
	m.DecodedEvicted += other.DecodedEvicted
	if other.ResidentPeak > m.ResidentPeak {
		m.ResidentPeak = other.ResidentPeak
	}
	if other.DecodedPeak > m.DecodedPeak {
		m.DecodedPeak = other.DecodedPeak
	}
}

// ProfileInput runs pass 1 only: profile and classify one input.
func ProfileInput(spec workload.Spec, scale float64) (*core.Profiler, core.ClassMap) {
	profiler := core.NewProfiler()
	spec.Run(profiler, scale)
	return profiler, core.Classify(profiler.Profiles())
}

// RunInput runs the full two-pass pipeline for one input: RunSuite over
// a one-input suite, on a private scheduler of cfg.Workers workers
// (cfg.Sched is not used). Pass 1 records the stream once, and pass 2
// sweeps the recorded chunks through the predictor bank. A panicking
// workload generator panics the caller, with the cause the suite run
// recorded.
func RunInput(spec workload.Spec, cfg Config) *InputResult {
	cfg.Sched = nil
	suite := RunSuite([]workload.Spec{spec}, cfg)
	if len(suite.Dropped) > 0 {
		panic(suite.Dropped[0].Err)
	}
	return suite.Inputs[0]
}

// finalizeMem snapshots the input's memory-shape counters off its
// recording handle and the sweep's chunk-window counters s.
func finalizeMem(res *InputResult, s trace.WindowStats) {
	h := res.Recorded
	res.Mem = MemStats{
		RecordedBytes:    h.EncodedBytes(),
		ResidentPeak:     h.ResidentPeak(),
		PageIns:          h.PageIns() - res.pageInsBefore,
		DecodedHits:      s.Hits,
		DecodedRedecodes: max(0, s.Decodes-int64(h.Chunks())),
		DecodedEvicted:   s.Released,
		DecodedPeak:      s.Peak,
	}
}

// profileRecorded runs pass 1 — profile and record in one generator run
// — consulting cfg.Cache first: on a hit the cached recording replays
// into the profiler and the generator never runs. Either way the
// returned handle is the input's exact event stream, and pageIns its
// lifetime page-in count before this run read it. Under cfg.MemBudget
// the recording streams straight to a spill file with a bounded
// resident prefix instead of being retained whole.
func profileRecorded(spec workload.Spec, cfg Config) (profiler *core.Profiler, h *trace.Handle, pageIns int64) {
	profiler = core.NewProfiler()
	if cfg.Cache != nil {
		if h, ok := cfg.Cache.Get(cfg.cacheKey(spec)); ok {
			pageIns = h.PageIns()
			h.Replay(profiler)
			return profiler, h, pageIns
		}
	}
	if cfg.MemBudget > 0 {
		if h, ok := streamRecord(spec, cfg, profiler); ok {
			return profiler, h, 0
		}
		// The spill file could not be created or sealed: fall back to the
		// fully resident path with a fresh profiler (the failed attempt
		// may have fed it a partial stream).
		profiler = core.NewProfiler()
	}
	recorder := trace.NewChunkRecorder(cfg.ChunkEvents)
	spec.Run(trace.Tee(profiler, recorder), cfg.Scale)
	h = trace.NewResidentHandle(recorder.Trace())
	if cfg.Cache != nil {
		// A failed spill loses persistence only — the recording is
		// still cached in memory — and is counted in the cache stats
		// (CacheStats.SpillFailures) for the CLIs to report.
		_ = cfg.Cache.Put(cfg.cacheKey(spec), h)
	}
	return profiler, h, 0
}

// streamRecord is the bounded-window pass 1: the generator's stream is
// teed into the profiler and a StreamRecorder writing BTR2 directly —
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
		_ = cfg.Cache.Put(cfg.cacheKey(spec), h)
	}
	return h, true
}

// hardIdx is the 5/5 joint class ("hard" branches), flattened the way
// core.ClassTable stores classes.
const hardIdx = 5*core.NumClasses + 5

// passOne profiles, records and classifies one input: the profiles,
// their classes and distribution, and an empty miss matrix and
// histogram for pass 2 to fill. Exec is each site's execution count
// summed into its joint class, so it needs no pass over the trace; the
// hard distances, which need event order, are still empty — the sweep's
// hard chain fills them.
func passOne(spec workload.Spec, cfg Config) *InputResult {
	profiler, recorded, pageIns := profileRecorded(spec, cfg)
	classes := core.Classify(profiler.Profiles())
	res := &InputResult{
		Spec:          spec,
		Events:        profiler.Events(),
		Sites:         profiler.Sites(),
		Profiles:      profiler.Profiles(),
		Classes:       classes,
		Table:         core.NewClassTable(classes),
		Distribution:  new(core.Distribution),
		Miss:          new([NumKinds][NumHistories]JointCounts),
		HardDistances: stats.NewHistogram(cfg.window() + 1),
		Recorded:      recorded,
		pageInsBefore: pageIns,
	}
	res.Distribution.AddProfiles(res.Profiles)
	for pc, p := range res.Profiles {
		ci := classOf(res.Table, pc)
		res.Exec[ci/core.NumClasses][ci%core.NumClasses] += p.Execs
	}
	return res
}

// profileCached serves the profile-cache fast path: a copy of the
// cached result plus the recording handle re-fetched from the trace
// cache.
//
// On a hit the recording the result was derived from comes back from
// cfg.Cache — the recording's lifetime stays under the trace cache's LRU
// budget, not pinned by profile entries — for the ablations that replay
// it, and no generator run, profiling replay or sweep happens at all,
// so the result's Mem stays zero.
// If the recording was evicted without a spill path the hit is unusable
// (the ablations need the stream) and the input falls through to a full
// recompute.
func profileCached(spec workload.Spec, cfg Config) (*InputResult, bool) {
	if cfg.Profiles == nil || cfg.Cache == nil {
		return nil, false
	}
	res, ok := cfg.Profiles.get(cfg.cacheKey(spec), cfg.window())
	if !ok {
		return nil, false
	}
	h, ok := cfg.Cache.Get(cfg.cacheKey(spec))
	if !ok {
		return nil, false
	}
	res.Recorded = h
	return res, true
}

// missCell is one bank slot's flat class-attributed miss counters.
type missCell = [core.NumClasses * core.NumClasses]int64

// numBankChains counts the sweep's chains: one per (kind, k) slot but
// PAs(0), which is GAs(0) (one 2^17-counter table on 17 address bits),
// so the fold copies GAs(0)'s counts to PAs(0).
const numBankChains = int(NumKinds)*NumHistories - 1

// chainSlot returns bank chain c's configuration, flat slot c+1 — the
// one place the chain ↔ (kind, k) mapping is realised.
func chainSlot(c int) (Kind, int) { return Kind((c + 1) / NumHistories), (c + 1) % NumHistories }

// bankPredictor is a bank slot's chunk kernel, whose tables go back to
// their pools on Release.
type bankPredictor interface {
	bpred.ChunkSweeper
	Release()
}

// chainPredictor builds the predictor of bank chain c.
func chainPredictor(c int) bankPredictor {
	kind, k := chainSlot(c)
	switch kind {
	case KindPAs:
		return bpred.NewPAs(k)
	case KindGAs:
		return bpred.NewGAs(k)
	default:
		panic(fmt.Sprintf("sim: bank chain %d has no predictor kind", c))
	}
}

// foldMisses copies each bank chain's flat counters into res.Miss;
// chains past the bank chains (the hard chain) hold no misses.
func foldMisses(res *InputResult, chains []sweepChain) {
	for c := range chains[:numBankChains] {
		kind, k := chainSlot(c)
		for t := 0; t < core.NumClasses; t++ {
			for tr := 0; tr < core.NumClasses; tr++ {
				res.Miss[kind][k][t][tr] = chains[c].miss[t*core.NumClasses+tr]
			}
		}
	}
	res.Miss[KindPAs][0] = res.Miss[KindGAs][0]
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

// sweepDecodedChunk advances one bank slot over one decoded chunk,
// attributing mispredictions into cell: the inner loop of every sweep
// task. wrong is the caller's scratch bitmap, at least (n+63)/64 words.
//
// Classes are resolved at the miss: only the set bits of wrong look
// their PC up in the input's class table. The popcount pre-scan totals
// the chunk's mispredictions first: an all-correct chunk — the common
// case for easy classes at high k — skips attribution entirely, and
// otherwise the running count stops the word walk as soon as the last
// miss has been attributed, bulk-skipping the zero tail.
func sweepDecodedChunk(p bpred.ChunkSweeper, d *trace.DecodedChunk, table *core.ClassTable, cell *missCell, wrong []uint64) {
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
	// A local copy of the table: cell's stores cannot alias it, so the
	// walk need not reload the table's fields behind every increment.
	tab, pcs := *table, d.PCs
	for w := 0; total > 0; w++ {
		bits := wrong[w]
		if bits == 0 {
			continue
		}
		total -= mathbits.OnesCount64(bits)
		for ; bits != 0; bits &= bits - 1 {
			cell[classOf(&tab, pcs[w*64+mathbits.TrailingZeros64(bits)])]++
		}
	}
}
