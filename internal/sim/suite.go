package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"btr/internal/core"
	"btr/internal/sched"
	"btr/internal/stats"
	"btr/internal/trace"
	"btr/internal/workload"
)

// InputError records one input that produced no result, with the
// recovered cause (e.g. a panicking workload generator).
type InputError struct {
	// Spec names the failed input; zero when the caller aggregated a nil
	// result without spec context.
	Spec workload.Spec
	// Err is the recovered cause.
	Err error
}

// Error renders "bench/input: cause".
func (e InputError) Error() string {
	name := e.Spec.Name()
	if e.Spec.Bench == "" && e.Spec.Input == "" {
		name = "input"
	}
	return fmt.Sprintf("%s: %v", name, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e InputError) Unwrap() error { return e.Err }

// errNoResult is the cause recorded when a nil result carries no
// explanation of its own.
var errNoResult = errors.New("produced no result")

// ErrCanceled is the cause recorded for inputs dropped because their
// suite run's group was canceled (sched.Group.Cancel — a disconnected
// brserve client, a deadline, an interrupt). Test with errors.Is: the
// recorded error may wrap it in task context.
var ErrCanceled = errors.New("suite run canceled")

// recoveredErr wraps a recovered panic value in task context. Error
// values keep their chain (%w) so upper layers can classify the cause —
// errors.Is(err, trace.ErrCorruptSpill) must see through "bank sweep
// failed: ..." for the suite's quarantine-and-retry round to trigger.
func recoveredErr(prefix string, r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	return fmt.Errorf("%s: %v", prefix, r)
}

// SuiteResult aggregates InputResults across benchmark inputs, dynamic-
// occurrence weighted, which is how every paper figure reports data.
type SuiteResult struct {
	// Inputs holds the per-input results in suite order.
	Inputs []*InputResult

	// Distribution is the suite-wide joint distribution (Table 2, Figures
	// 1-2): each static branch weighted by its dynamic count, classified
	// within its own input's profile.
	Distribution core.Distribution

	// Exec and Miss are the summed class-attributed counts.
	Exec JointCounts
	Miss [NumKinds][NumHistories]JointCounts

	// HardByBench histograms Figure 15 distances per benchmark.
	HardByBench map[string]*stats.Histogram

	// Mem folds the per-input memory-shape counters (recording
	// footprint, spill page-ins, chunk-window traffic): counters sum
	// across inputs, the peaks are the largest single input's (inputs
	// run concurrently, so suite-wide peaks are not additive).
	Mem MemStats

	// Dropped records the inputs skipped during aggregation — workloads
	// that failed to produce a result — each with its spec and the
	// recovered cause, so a failed run is diagnosable.
	Dropped []InputError
}

// RunSuite runs every spec through the two-pass pipeline and aggregates.
//
// The engine is one work-stealing scheduler over per-input task grids:
// each input starts as a profile+record task, whose recording fans out
// as the 34-slot PAs/GAs sweep — one chain of one-chunk tasks per slot
// but PAs(0), which is GAs(0), plus the hard-distance chain — into the
// same queue, so late-arriving fan-out from a heavy input backfills
// cores freed by small ones. Every sweep task is a pure function of its
// input's recorded stream, so scheduling order cannot change results
// (bit-for-bit identical to a serial Predict+Update walk; see
// TestScheduledMatchesLegacy). An input with a cfg.Profiles entry is
// one task that publishes the cached result.
//
// The run rides cfg.Sched when set; otherwise a private scheduler of
// cfg.Workers workers is built and stopped around it.
func RunSuite(specs []workload.Spec, cfg Config) *SuiteResult {
	s := cfg.Sched
	if s == nil {
		// Workers are NOT clamped to len(specs): the sweep fan-out gives
		// every core work even for a single-input suite.
		s = sched.New(cfg.suiteWorkers())
		defer s.Close()
	}
	return RunSuiteOn(s, specs, cfg)
}

func (c Config) suiteWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunSuiteOn runs the suite's task grid as one completion-tracked group
// on s, which may be shared by any number of concurrent suite runs:
// each call gets a private barrier (and private panic propagation)
// while every call's tasks steal-balance over the same workers. The
// scheduler is left running. Results are bit-identical to RunSuite for
// any number of concurrent callers — scheduling order is
// result-invisible by construction.
func RunSuiteOn(s *sched.Scheduler, specs []workload.Spec, cfg Config) *SuiteResult {
	return RunSuiteGroup(s.NewGroup(), specs, cfg)
}

// RunSuiteGroup is RunSuiteOn with a caller-owned group: the suite's
// whole task grid joins g, so the caller
// can Cancel it mid-run (a disconnected client, a deadline). Canceled
// inputs land in SuiteResult.Dropped with ErrCanceled and the call
// returns once the queued tasks drain, in bounded time because every
// grid checks the flag at task boundaries.
//
// It is also where spill corruption is recovered: an input that failed
// because its cached recording no longer decodes (errors.Is
// trace.ErrCorruptSpill — a checksum mismatch, a truncated file) has
// the cache entry quarantined and is re-run once on the same group.
// The retry finds no recording and re-records from the generator, so
// its result is bit-identical to an uncorrupted run; a second failure
// stays in Dropped with its cause.
func RunSuiteGroup(g *sched.Group, specs []workload.Spec, cfg Config) *SuiteResult {
	results := make([]*InputResult, len(specs))
	errs := make([]error, len(specs))
	submit := func(i int) {
		g.Submit(func(w *sched.Worker) {
			if w.Canceled() {
				errs[i] = ErrCanceled
				return
			}
			profileTask(w, specs[i], cfg, &results[i], &errs[i])
		})
	}
	for i := range specs {
		submit(i)
	}
	g.Wait()
	if cfg.Cache != nil && !g.Canceled() {
		retried := false
		for i := range specs {
			if results[i] == nil && errors.Is(errs[i], trace.ErrCorruptSpill) {
				cfg.Cache.Quarantine(cfg.cacheKey(specs[i]))
				errs[i] = nil
				submit(i)
				retried = true
			}
		}
		if retried {
			g.Wait()
		}
	}
	return aggregate(results, specs, errs, cfg)
}

// recoverInput is deferred around an input's generator run: a
// panicking workload becomes the input's recorded cause (the result
// stays nil and is reported via SuiteResult.Dropped) and the suite run
// continues.
func recoverInput(errOut *error) {
	if r := recover(); r != nil {
		*errOut = recoveredErr("workload panicked", r)
	}
}

// profileTask runs one input's pass 1 and launches its sweep over a
// decode-once chunk window. A profile-cache hit is the input's whole
// result: it is published at once, with no pass 1 and no sweep. The
// last sweep task to finish folds the counters and publishes the result
// — Group.Wait's barrier makes the write visible to the aggregation.
func profileTask(w *sched.Worker, spec workload.Spec, cfg Config, out **InputResult, errOut *error) {
	if res, ok := profileCached(spec, cfg); ok {
		*out = res
		return
	}
	var res *InputResult
	func() {
		defer recoverInput(errOut)
		res = passOne(spec, cfg)
	}()
	if res == nil {
		return
	}
	startChunkSweep(w, res, cfg, out, errOut)
}

// startChunkSweep fans an input's sweep out as numBankChains chains
// plus the hard chain over the chunk window. Chain heads go out
// oldest-first: the submitting worker pops the last chain LIFO and
// rides it chunk by chunk (hot predictor tables), while thieves peel
// whole un-started chains FIFO.
func startChunkSweep(w *sched.Worker, res *InputResult, cfg Config, out **InputResult, errOut *error) {
	cs := newChunkSweep(res, cfg, out, errOut)
	if cs.live.Load() == 0 {
		// Empty recording: nothing to sweep, publish immediately.
		cs.finish()
		return
	}
	for i := range cs.chains {
		w.Submit(cs.chains[i].cont)
	}
}

// chunkSweep is one input's in-flight (slot × chunk) sweep grid. Every
// bank slot is its own chain over the shared chunk window (the first
// chain to reach a chunk decodes it — paging from the spill file if
// need be — and the last to pass it drops it); a chain's chunks run
// strictly in order (the predictor state hands off from chunk to chunk
// by living in the chain), so results are bit-identical to a serial
// sweep, while distinct chains are independent and steal-balanced
// across every core. One more chain, the hard chain, walks the same
// chunks for the Figure 15 distances: it carries the last hard position
// from chunk to chunk the way a slot chain carries its predictor. Each
// task sweeps one chunk: at DefaultChunkEvents events that lands in the
// tens of microseconds, coarse enough that the queue overhead is noise
// and fine enough that stealing levels the tail of a single huge input.
// A chain that runs ahead of the window parks its continuation there
// instead of holding a worker.
type chunkSweep struct {
	res      *InputResult
	cfg      Config
	win      *chunkWindow
	nchunks  int
	chains   []sweepChain
	lastHard int64        // the hard chain's carry: global index of the last hard event, -1 before the first
	live     atomic.Int32 // chains not yet exhausted
	failed   atomic.Bool  // poison: a chain hit a paging failure
	out      **InputResult
	errOut   *error
}

// sweepChain is one bank slot's sequential march over the chunk axis,
// or the hard chain's. A bank chain builds its predictor at its first
// chunk and releases its tables to the shared pools after its last; a
// poisoned or canceled chain just drops it. Its fields are only touched
// by the chain's current task, and the chain has one task queued,
// running or parked at a time, so it needs no locking.
type sweepChain struct {
	p    bankPredictor // nil before the first chunk, after the last, and on the hard chain
	next int           // next chunk index to sweep
	miss missCell      // the slot's class-attributed misses so far
	cont sched.Task    // the chain's continuation: advance from next
	// wrong is the bank chain's miss bitmap for one chunk: a field, not
	// a local, which would escape through SweepChunk on every task.
	wrong [(trace.DefaultChunkEvents + 63) / 64]uint64
}

func newChunkSweep(res *InputResult, cfg Config, out **InputResult, errOut *error) *chunkSweep {
	const nchains = numBankChains + 1 // the bank's chains and the hard chain
	h := res.Recorded
	cs := &chunkSweep{
		res:      res,
		cfg:      cfg,
		win:      trace.NewChunkWindow[sched.Task](h, cfg.DecodedBudget, nchains),
		nchunks:  h.Chunks(),
		chains:   make([]sweepChain, nchains),
		lastHard: -1,
		out:      out,
		errOut:   errOut,
	}
	if cs.nchunks > 0 {
		cs.live.Store(int32(nchains))
	}
	for i := range cs.chains {
		cs.chains[i].cont = func(w *sched.Worker) { cs.advance(w, i) }
	}
	return cs
}

// advance runs one (slot, chunk) task: sweep the chain's next chunk
// through the window, then either re-queue the chain's continuation or
// — as the last chain to exhaust the trace — fold and publish the
// input's result. A chain that reaches a chunk the window cannot serve
// yet stops there; its continuation is resubmitted by the task that
// unblocks it. A spill paging failure (or a panic) poisons the grid and
// the window: the cause is recorded once, parked chains are dropped,
// sibling chains bail out at their next task, live never reaches zero,
// and the unpublished input is reported via SuiteResult.Dropped. Group
// cancellation poisons the same way with ErrCanceled, so a canceled
// request's chains stop at their next chunk instead of sweeping the
// rest of the trace.
func (cs *chunkSweep) advance(w *sched.Worker, ci int) {
	defer func() {
		if r := recover(); r != nil {
			cs.poison(recoveredErr("bank sweep failed", r))
		}
	}()
	if cs.failed.Load() {
		return
	}
	if w.Canceled() {
		cs.poison(ErrCanceled)
		return
	}
	ch := &cs.chains[ci]
	d, ok, err := checkout(w, cs.win, ch.next, ch.cont)
	if err != nil {
		cs.poison(fmt.Errorf("bank sweep failed: %w", err))
	}
	if !ok {
		return
	}
	if ci < numBankChains {
		if ch.p == nil {
			ch.p = chainPredictor(ci)
		}
		scratch := ch.wrong[:]
		if words := (d.N + 63) / 64; words > len(scratch) {
			scratch = make([]uint64, words)
		}
		sweepDecodedChunk(ch.p, &d, cs.res.Table, &ch.miss, scratch)
	} else {
		cs.walkHard(&d)
	}
	release(w, cs.win, ch.next)
	if ch.next++; ch.next < cs.nchunks {
		w.Submit(ch.cont)
		return
	}
	if ch.p != nil {
		ch.p.Release()
		ch.p = nil
	}
	if cs.live.Add(-1) == 0 {
		cs.finish()
	}
}

// walkHard is the hard chain's step over one chunk: it histograms the
// distance between consecutive hard (5/5) events, the last hard
// position carried over from the previous chunk.
func (cs *chunkSweep) walkHard(d *trace.DecodedChunk) {
	tab, last, hist := *cs.res.Table, cs.lastHard, cs.res.HardDistances
	for i, pc := range d.PCs[:d.N] {
		if classOf(&tab, pc) != hardIdx {
			continue
		}
		pos := d.Base + int64(i)
		if last >= 0 {
			hist.Add(int(pos - last))
		}
		last = pos
	}
	cs.lastHard = last
}

// finish publishes the input once every chain has passed the last
// chunk: the bank's counters fold into res, the complete result goes to
// the profile cache, and the window's counters fill res.Mem. A failed or
// canceled sweep never gets here, so it publishes nothing.
func (cs *chunkSweep) finish() {
	foldMisses(cs.res, cs.chains)
	if cs.cfg.Profiles != nil {
		cs.cfg.Profiles.put(cs.cfg.cacheKey(cs.res.Spec), cs.cfg.window(), cs.res)
	}
	finalizeMem(cs.res, cs.win.Stats())
	*cs.out = cs.res
}

// poison records the grid's first failure cause and fails the window,
// dropping parked chains and freeing its decoded columns (the grid never
// publishes, so nothing else would).
func (cs *chunkSweep) poison(err error) {
	if cs.failed.CompareAndSwap(false, true) {
		*cs.errOut = err
		cs.win.Fail(err)
	}
}

// Aggregate folds per-input results into a SuiteResult. Nil entries —
// inputs that never produced a result — are skipped and reported via
// Dropped rather than panicking the whole suite.
func Aggregate(results []*InputResult, cfg Config) *SuiteResult {
	return aggregate(results, nil, nil, cfg)
}

// aggregate is Aggregate plus the per-input context RunSuite has:
// specs[i] and errs[i] explain a nil results[i]. Either slice may be
// nil.
func aggregate(results []*InputResult, specs []workload.Spec, errs []error, cfg Config) *SuiteResult {
	suite := &SuiteResult{
		Inputs:      make([]*InputResult, 0, len(results)),
		HardByBench: make(map[string]*stats.Histogram),
	}
	for i, r := range results {
		if r == nil {
			ie := InputError{Err: errNoResult}
			if specs != nil {
				ie.Spec = specs[i]
			}
			if errs != nil && errs[i] != nil {
				ie.Err = errs[i]
			}
			suite.Dropped = append(suite.Dropped, ie)
			continue
		}
		suite.Inputs = append(suite.Inputs, r)
		suite.Distribution.Add(r.Distribution)
		suite.Exec.Add(&r.Exec)
		suite.Mem.Add(&r.Mem)
		for kind := Kind(0); kind < NumKinds; kind++ {
			for k := 0; k < NumHistories; k++ {
				suite.Miss[kind][k].Add(&r.Miss[kind][k])
			}
		}
		h := suite.HardByBench[r.Spec.Bench]
		if h == nil {
			h = stats.NewHistogram(cfg.window() + 1)
			suite.HardByBench[r.Spec.Bench] = h
		}
		for i, c := range r.HardDistances.Bins {
			h.Bins[i] += c
		}
	}
	return suite
}

// Benchmarks lists the distinct benchmark names present, in input order.
func (s *SuiteResult) Benchmarks() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range s.Inputs {
		if !seen[r.Spec.Bench] {
			seen[r.Spec.Bench] = true
			out = append(out, r.Spec.Bench)
		}
	}
	sort.Strings(out)
	return out
}

// TotalEvents sums dynamic branches across inputs.
func (s *SuiteResult) TotalEvents() int64 {
	var sum int64
	for _, r := range s.Inputs {
		sum += r.Events
	}
	return sum
}
