// Package btr reproduces "Branch Transition Rate: A New Metric for
// Improved Branch Classification Analysis" (Haungs, Sallee, Farrens;
// HPCA 2000) as a reusable Go library.
//
// The paper classifies conditional branches by two per-branch metrics —
// taken rate and transition rate — and shows that the joint classification
// predicts two-level branch predictor behaviour: which branches need no
// pattern history, which alternating branches need one or two bits, which
// need long histories, and which (the near-50%/50% "5/5" class) defeat
// prediction entirely.
//
// This package is the public facade over the internal substrates:
//
//   - profiling and classification (taken/transition rates, 11-way
//     classes, joint distribution, §4.2 coverage),
//   - the predictor simulator (the paper's 32 KB PAs/GAs sweep plus
//     baselines and classification-guided hybrids),
//   - the SPECint95-analogue workload suite (Table 1),
//   - the experiment drivers that regenerate every table and figure.
//
// # Quick start
//
//	spec, _ := btr.FindWorkload("compress", "bigtest.in")
//	prof := btr.ProfileWorkload(spec, 0.1)
//	for pc, p := range prof.Profiles() {
//		jc := btr.ClassOfProfile(p)
//		fmt.Printf("%#x taken=%.2f trans=%.2f class=%s\n",
//			pc, p.TakenRate(), p.TransitionRate(), jc)
//	}
//
// See the examples/ directory for complete programs.
package btr

import (
	"io"

	"btr/internal/bpred"
	"btr/internal/conf"
	"btr/internal/core"
	"btr/internal/experiments"
	"btr/internal/rng"
	"btr/internal/sched"
	"btr/internal/sim"
	"btr/internal/trace"
	"btr/internal/workload"
)

// Re-exported core types. The concrete implementations live in internal
// packages; these aliases are the supported API.
type (
	// Profile is the per-branch taken/transition accumulator.
	Profile = core.Profile
	// Profiler builds Profiles from a branch event stream.
	Profiler = core.Profiler
	// Class is an 11-way rate class (0..10).
	Class = core.Class
	// JointClass pairs a taken class with a transition class.
	JointClass = core.JointClass
	// ClassMap maps branch PCs to joint classes.
	ClassMap = core.ClassMap
	// Distribution is the dynamic-weighted joint class distribution.
	Distribution = core.Distribution
	// Coverage is the §4.2 coverage comparison.
	Coverage = core.Coverage
	// Advice is a §5 resource recommendation for a branch class.
	Advice = core.Advice

	// Event is one dynamic conditional branch execution.
	Event = trace.Event
	// Sink consumes branch events.
	Sink = trace.Sink
	// Source produces branch events.
	Source = trace.Source

	// Predictor is a dynamic branch predictor.
	Predictor = bpred.Predictor

	// Estimator assigns confidence to predictions.
	Estimator = conf.Estimator

	// WorkloadSpec is one Table 1 benchmark/input row.
	WorkloadSpec = workload.Spec
	// WorkloadTracer is the tracer handed to instrumented workload code;
	// call its B method at every conditional branch site.
	WorkloadTracer = workload.T
	// Rand is the deterministic generator workloads draw inputs from.
	Rand = rng.Rand

	// SimConfig configures suite simulation.
	SimConfig = sim.Config
	// SuiteResult is the aggregated sweep result behind every figure.
	SuiteResult = sim.SuiteResult
	// InputResult is the per-input two-pass result.
	InputResult = sim.InputResult
	// InputError records one dropped suite input with its recovered cause.
	InputError = sim.InputError
	// MemStats reports how trace data moved through the bounded-memory
	// pipeline (recording footprint, spill page-ins, chunk-window
	// traffic); see SimConfig.MemBudget and SimConfig.DecodedBudget.
	MemStats = sim.MemStats
	// PredictorKind selects PAs or GAs in sweep queries.
	PredictorKind = sim.Kind

	// TraceCache shares recorded workload traces across runs and
	// experiment contexts, keyed by (workload name, spec fingerprint,
	// scale, chunk size), optionally spilling to BTR2 files. Assign one
	// to SimConfig.Cache.
	TraceCache = trace.Cache
	// TraceCacheKey identifies one recording in a TraceCache.
	TraceCacheKey = trace.CacheKey
	// ProfileCache caches each input's whole result (Miss included)
	// under the same keys as a TraceCache, so matching runs skip the
	// profiling replay and the bank sweep as well as the generator run.
	// Assign one to SimConfig.Profiles.
	ProfileCache = sim.ProfileCache

	// Experiment regenerates one paper table or figure.
	Experiment = experiments.Experiment

	// Scheduler is the shared work-stealing task scheduler. Build one
	// with NewScheduler, assign it to SimConfig.Sched, and any number of
	// suite runs — sequential or concurrent — submit their task graphs
	// to it as independently-awaited groups; Close retires the workers.
	Scheduler = sched.Scheduler
	// SchedulerStats is a snapshot of a Scheduler's lifetime counters
	// (tasks executed, steals, injector submits, park episodes, queue
	// depth).
	SchedulerStats = sched.Stats
	// TaskGroup tracks (and can cancel) one related set of tasks on a
	// long-lived Scheduler — one suite run, one server request. Build
	// with Scheduler.NewGroup; Cancel unwinds the run cooperatively at
	// task boundaries, dropping unfinished inputs with ErrCanceled.
	TaskGroup = sched.Group
	// SpillVerifyReport is the result of auditing one spill file
	// (VerifySpillFile): format, chunk/event counts, and the first
	// failure if any.
	SpillVerifyReport = trace.VerifyReport

	// ExperimentShared bundles the substrate experiment contexts share:
	// the recorded-trace cache and its pass-1 profile sibling. One
	// bundle can back any number of concurrent contexts.
	ExperimentShared = experiments.Shared
)

// Predictor kinds.
const (
	PAs = sim.KindPAs
	GAs = sim.KindGAs
)

// Resource advice values returned by Advise (§5).
const (
	AdviseStatic        = core.AdviseStatic
	AdviseShortLocal    = core.AdviseShortLocal
	AdviseLongHistory   = core.AdviseLongHistory
	AdviseNonPredictive = core.AdviseNonPredictive
)

// NumClasses is the number of rate classes (11).
const NumClasses = core.NumClasses

// MaxHistory is the largest history length in the paper's sweep (16).
const MaxHistory = bpred.MaxHistory

// ClassOf maps a rate in [0,1] to its class.
func ClassOf(rate float64) Class { return core.ClassOf(rate) }

// ClassOfProfile returns a profile's joint class.
func ClassOfProfile(p *Profile) JointClass { return core.ClassOfProfile(p) }

// Classify builds a ClassMap from profiles.
func Classify(profiles map[uint64]*Profile) ClassMap { return core.Classify(profiles) }

// ComputeCoverage evaluates the §4.2 coverage comparison.
func ComputeCoverage(d *Distribution) Coverage { return core.ComputeCoverage(d) }

// Advise maps a joint class to the paper's §5 resource recommendation.
func Advise(jc JointClass) Advice { return core.Advise(jc) }

// NewProfiler returns an empty profiler; feed it events via its Branch
// method (it is a Sink).
func NewProfiler() *Profiler { return core.NewProfiler() }

// Workloads returns every Table 1 benchmark/input spec.
func Workloads() []WorkloadSpec { return workload.Suite() }

// FindWorkload returns the spec named bench/input.
func FindWorkload(bench, input string) (WorkloadSpec, error) {
	return workload.Find(bench, input)
}

// NewWorkloadSpec builds a custom workload from a user-supplied
// instrumented program, usable everywhere a built-in spec is: profiling,
// predictor runs, and RunSuite. The run function must be deterministic
// given (r, target) and should emit branches via t.B until t.N() reaches
// target. See examples/customworkload.
func NewWorkloadSpec(bench, input string, target int64, seed uint64,
	run func(t *WorkloadTracer, r *Rand, target int64)) WorkloadSpec {
	return workload.NewSpec(bench, input, target, seed, run)
}

// ProfileWorkload profiles one workload at the given scale (1.0 = the
// registry's default sizing).
func ProfileWorkload(spec WorkloadSpec, scale float64) *Profiler {
	profiler, _ := sim.ProfileInput(spec, scale)
	return profiler
}

// RunInput runs the full two-pass pipeline (profile, then the PAs/GAs
// history sweep) for one workload, as a one-input RunSuite on a private
// scheduler.
func RunInput(spec WorkloadSpec, cfg SimConfig) *InputResult {
	return sim.RunInput(spec, cfg)
}

// RunSuite runs the two-pass pipeline over the given specs and aggregates
// (dynamic-occurrence weighted) exactly as the paper reports. Every input
// runs as tasks on one work-stealing scheduler: the recorded 34-slot
// sweep as 33 per-slot chains of one-chunk tasks (PAs(0) is GAs(0)).
func RunSuite(specs []WorkloadSpec, cfg SimConfig) *SuiteResult {
	return sim.RunSuite(specs, cfg)
}

// NewScheduler builds a long-lived scheduler with n workers (0 =
// GOMAXPROCS). Assign it to SimConfig.Sched to run many suites —
// including concurrently — on one worker pool, and Close it when done.
func NewScheduler(n int) *Scheduler { return sched.New(n) }

// RunSuiteOn is RunSuite on an existing long-lived scheduler: the
// suite's tasks run as one completion-tracked group, so concurrent
// callers share s's workers without waiting on each other's work.
func RunSuiteOn(s *Scheduler, specs []WorkloadSpec, cfg SimConfig) *SuiteResult {
	return sim.RunSuiteOn(s, specs, cfg)
}

// RunSuiteGroup is RunSuiteOn with a caller-owned group, so the run can
// be canceled mid-flight (TaskGroup.Cancel): canceled inputs land in
// SuiteResult.Dropped with ErrCanceled and the call returns once the
// queued tasks drain. It is also where corrupt cached spill files are
// recovered: an input failing with ErrCorruptSpill has its cache entry
// quarantined and is re-recorded from the generator once,
// bit-identically.
func RunSuiteGroup(g *TaskGroup, specs []WorkloadSpec, cfg SimConfig) *SuiteResult {
	return sim.RunSuiteGroup(g, specs, cfg)
}

// ErrCanceled is the cause recorded for inputs dropped by a canceled
// TaskGroup. Test with errors.Is.
var ErrCanceled = sim.ErrCanceled

// ErrCorruptSpill matches (errors.Is) every spill-integrity failure: a
// chunk checksum mismatch, a truncated file, undecodable chunk bytes.
var ErrCorruptSpill = trace.ErrCorruptSpill

// VerifySpillFile audits one spill file — header, frame structure,
// event counts, and (BTR2) every chunk's checksum and decodability.
func VerifySpillFile(path string) SpillVerifyReport { return trace.VerifySpill(path) }

// DefaultTraceCacheBytes is the resident-frame budget for callers with
// no better number (1 GiB).
const DefaultTraceCacheBytes = trace.DefaultCacheBytes

// NewTraceCache builds a recorded-trace cache bounded to maxBytes of
// resident frames (<= 0 means unbounded). A non-empty spillDir makes it
// persistent: traces are written through as BTR2 files and reloaded on
// demand, including by later processes pointed at the same directory.
// Spill filenames embed the workload registry's fingerprint (a hash of
// every spec's name, target and seed), so a directory written by a
// build with different workloads self-invalidates instead of serving
// stale recordings.
func NewTraceCache(maxBytes int64, spillDir string) *TraceCache {
	return trace.NewCache(maxBytes, spillDir, workload.RegistryFingerprint())
}

// NewProfileCache builds a cache of per-input results with the default
// byte budget. Assign it to SimConfig.Profiles so repeated runs over the
// same (workload, scale, chunk) skip the profiling replay and the bank
// sweep entirely; experiment contexts built via NewExperimentContext
// share one automatically.
func NewProfileCache() *ProfileCache {
	return sim.NewProfileCache()
}

// NewProfileCacheBytes is NewProfileCache with an explicit budget for
// the retained results (<= 0 means unbounded); entries past it
// are evicted least-recently-used and recomputed on the next run.
func NewProfileCacheBytes(maxBytes int64) *ProfileCache {
	return sim.NewProfileCacheBytes(maxBytes)
}

// Predictor constructors (the paper's §3 configurations and the
// classification-guided hybrids of §5.4).

// NewPAs returns the paper's 32 KB per-address two-level predictor with
// history length k (0..MaxHistory).
func NewPAs(k int) Predictor { return bpred.NewPAs(k) }

// NewGAs returns the paper's 32 KB global two-level predictor with history
// length k (0..MaxHistory).
func NewGAs(k int) Predictor { return bpred.NewGAs(k) }

// NewGShare returns a gshare predictor with 2^phtBits counters and history
// length k.
func NewGShare(phtBits, k int) Predictor { return bpred.NewGShare(phtBits, k) }

// NewBimodal returns a bimodal predictor with 2^bits counters.
func NewBimodal(bits int) Predictor { return bpred.NewBimodal(bits) }

// NewTransitionHybrid builds the §5.4 classification-guided hybrid from a
// profiling pass.
func NewTransitionHybrid(classes ClassMap, profiles map[uint64]*Profile) Predictor {
	return bpred.NewTransitionHybrid(classes, profiles, bpred.HybridComponents{})
}

// NewTakenHybrid builds the Chang-style taken-rate-guided hybrid baseline.
func NewTakenHybrid(classes ClassMap, profiles map[uint64]*Profile) Predictor {
	return bpred.NewTakenHybrid(classes, profiles, bpred.HybridComponents{})
}

// NewDynamicClassHybrid builds the §6 future-work predictor: transition
// and taken rates measured by runtime counters over a per-branch window
// (no profiling pass), steering each branch to the component its dynamic
// class deserves. tableBits sizes the monitor table; window is executions
// per classification decision: 0 means 64, and any other window must be
// at least 2 (a transition rate needs two executions), so 1 panics.
func NewDynamicClassHybrid(tableBits int, window uint16) Predictor {
	return bpred.NewDynamicClassHybrid(tableBits, window, bpred.HybridComponents{})
}

// RunPredictor drives a predictor over a workload at the given scale and
// returns (misses, events).
func RunPredictor(p Predictor, spec WorkloadSpec, scale float64) (misses, events int64) {
	sink := bpred.NewSink(p)
	spec.Run(sink, scale)
	return sink.Res.Misses, sink.Res.Events
}

// Experiments returns every table/figure driver in paper order.
func Experiments() []Experiment { return experiments.All() }

// FindExperiment returns the driver for an id such as "T2" or "F13".
func FindExperiment(id string) (Experiment, error) { return experiments.Find(id) }

// RunExperiment regenerates one artifact into w, sharing the sweep in ctx.
func RunExperiment(ctx *ExperimentContext, id string, w io.Writer) error {
	e, err := experiments.Find(id)
	if err != nil {
		return err
	}
	return e.Run(ctx.ctx, w)
}

// ExperimentContext shares one suite sweep across experiment runs.
type ExperimentContext struct {
	ctx *experiments.Context
}

// NewExperimentContext builds a context over the full Table 1 suite.
func NewExperimentContext(cfg SimConfig) *ExperimentContext {
	return &ExperimentContext{ctx: experiments.NewContext(cfg)}
}

// NewExperimentShared builds an explicit cache bundle for
// NewExperimentContextShared: a trace cache bounded to cacheBytes
// (<= 0 = DefaultTraceCacheBytes) spilling to spillDir ("" = memory
// only) plus a profile cache. Servers build one and hand it to every
// session.
func NewExperimentShared(cacheBytes int64, spillDir string) *ExperimentShared {
	return experiments.NewShared(cacheBytes, spillDir)
}

// NewExperimentContextShared builds a context over an explicit shared
// bundle — the multi-tenant shape: many cheap per-request contexts,
// one substrate. A nil bundle selects the process-wide default.
func NewExperimentContextShared(cfg SimConfig, sh *ExperimentShared) *ExperimentContext {
	return &ExperimentContext{ctx: experiments.NewContextShared(cfg, sh)}
}

// Suite exposes the shared suite result (computing it on first use).
func (c *ExperimentContext) Suite() *SuiteResult { return c.ctx.Suite() }

// SuiteGroup is Suite with the first computation joining the given
// group, so the caller can cancel the sweep mid-run (an interrupt, a
// deadline). Canceled inputs are reported in SuiteResult.Dropped with
// ErrCanceled.
func (c *ExperimentContext) SuiteGroup(g *TaskGroup) *SuiteResult { return c.ctx.SuiteGroup(g) }
