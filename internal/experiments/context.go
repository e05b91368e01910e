// Package experiments contains one driver per table and figure in the
// paper (T1, T2, F1-F15), the §4.2 coverage arithmetic (S1), the §5
// ablations (A1-A5) and a per-benchmark supplement (X1). Each driver
// renders its artifact from a shared SuiteResult so the expensive sweep
// runs once per process; the ablations that run the suite through extra
// predictors run as grids of per-row column kernels, one task per input
// (see runGrid).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"btr/internal/sched"
	"btr/internal/sim"
	"btr/internal/trace"
	"btr/internal/workload"
)

// Context carries the configuration and lazily-computed suite results
// shared by every experiment.
type Context struct {
	Cfg   sim.Config
	Specs []workload.Spec

	once  sync.Once
	suite *sim.SuiteResult
	// group is the group last passed to SuiteGroup; canceling it also
	// cancels the ablation grids (see runGrid).
	group atomic.Pointer[sched.Group]

	// predMu guards predMemo: suite-wide predictor results keyed by
	// constructor, so rows A1 and A5 share run once.
	predMu   sync.Mutex
	predMemo map[string]predictorTally
}

// Shared bundles the immutable-state substrate experiment contexts
// draw on: the recorded-trace cache and its per-input result sibling.
// Recordings are keyed by (workload name, spec fingerprint, scale,
// chunk size), so any two contexts over the same bundle with matching
// config — an ablation rerun, a confidence study, a second brserve
// request — replay the first run's recordings instead of running any
// generator again, and the profile cache makes that second context skip
// the profiling replay and the bank sweep too. Both caches
// are safe for concurrent use, so one bundle can back any number of
// concurrent sessions.
type Shared struct {
	// Traces is the recorded-trace cache (sim.Config.Cache).
	Traces *trace.Cache
	// Profiles is the classified pass-1 cache (sim.Config.Profiles).
	Profiles *sim.ProfileCache
}

// NewShared builds an explicit bundle: a trace cache bounded to
// cacheBytes of resident frames (<= 0 means trace.DefaultCacheBytes)
// spilling BTR2 files to spillDir ("" = memory only), plus a
// default-budget profile cache. Servers construct one of these and
// hand it to every session; CLIs usually go through SharedFor.
func NewShared(cacheBytes int64, spillDir string) *Shared {
	if cacheBytes <= 0 {
		cacheBytes = trace.DefaultCacheBytes
	}
	return &Shared{
		Traces:   trace.NewCache(cacheBytes, spillDir, workload.RegistryFingerprint()),
		Profiles: sim.NewProfileCache(),
	}
}

// sharedByDir memoises one bundle per spill directory. A single
// package singleton used to serve every caller regardless of cache
// directory, which silently pointed two contexts with different
// -cachedir at one memory cache (and only one of the directories);
// keying the registry by directory gives same-dir callers one shared
// in-memory instance and different-dir callers genuinely distinct
// caches.
var (
	sharedMu    sync.Mutex
	sharedByDir = make(map[string]*Shared)
)

// SharedFor returns the process-wide bundle for spillDir (building it
// with default budgets on first use). The empty string names the
// memory-only default bundle every cache-less context shares.
func SharedFor(spillDir string) *Shared {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	sh := sharedByDir[spillDir]
	if sh == nil {
		sh = NewShared(0, spillDir)
		sharedByDir[spillDir] = sh
	}
	return sh
}

// NewContext builds a context over the full Table 1 suite, defaulting
// to the process-wide shared bundle (SharedFor("")).
func NewContext(cfg sim.Config) *Context {
	return NewContextShared(cfg, nil)
}

// NewContextShared builds a context over the full Table 1 suite using
// the given bundle for whichever of cfg.Cache / cfg.Profiles the config
// does not bring itself. A nil bundle selects the process default —
// except under a memory budget (cfg.MemBudget > 0), where a cache-less
// config gets a private trace cache bounded to that budget instead: the
// shared cache's default 1 GiB of resident frames would defeat the
// bound the caller just asked for, and the profile cache is tightened
// to the same number, so the private bundle as a whole stays within
// it. An explicit bundle is used as given — its owner (a server
// applying per-request budgets over one substrate) has already chosen
// the sizes.
func NewContextShared(cfg sim.Config, sh *Shared) *Context {
	if sh == nil {
		if cfg.MemBudget > 0 && cfg.Cache == nil {
			cfg.Cache = trace.NewCache(cfg.MemBudget, "", workload.RegistryFingerprint())
			if cfg.Profiles == nil {
				cfg.Profiles = sim.NewProfileCacheBytes(cfg.MemBudget)
			}
		}
		sh = SharedFor("")
	}
	if cfg.Cache == nil {
		cfg.Cache = sh.Traces
	}
	if cfg.Profiles == nil {
		cfg.Profiles = sh.Profiles
	}
	return &Context{Cfg: cfg, Specs: workload.Suite()}
}

// Suite returns the shared suite result, computing it on first use.
func (c *Context) Suite() *sim.SuiteResult {
	c.once.Do(func() {
		c.suite = sim.RunSuite(c.Specs, c.Cfg)
	})
	return c.suite
}

// SuiteGroup is Suite with the first computation running as the given
// scheduler group, so the caller can cancel the suite mid-run
// (sched.Group.Cancel): brserve hands each request's group here and
// cancels it when the client disconnects or a deadline fires. Inputs
// dropped by the cancellation carry sim.ErrCanceled in
// SuiteResult.Dropped. If the suite was already computed (by Suite or
// an earlier SuiteGroup), the cached result is returned and no task
// joins g.
//
// Either way the context remembers g: once it is canceled, the
// ablations (A1, A2, A4, A5) skip their remaining work and return
// sim.ErrCanceled.
func (c *Context) SuiteGroup(g *sched.Group) *sim.SuiteResult {
	c.group.Store(g)
	c.once.Do(func() {
		c.suite = sim.RunSuiteGroup(g, c.Specs, c.Cfg)
	})
	return c.suite
}

// Experiment is one reproducible artifact.
type Experiment struct {
	// ID is the index key, e.g. "T2" or "F13".
	ID string
	// Paper describes the original artifact.
	Paper string
	// Run renders the reproduction to w.
	Run func(c *Context, w io.Writer) error
}

// registry lists every experiment in paper order: Tables 1-2 and the
// §4.2 coverage arithmetic, Figures 1-15, the §5 ablations, then the
// supplemental breakdown. All and Find walk it as is, so `brexp -run
// all` and brserve's "all" render in this order.
var registry = []Experiment{
	{ID: "T1", Paper: "Table 1: benchmarks, input sets and number of dynamic conditional branches analyzed", Run: runTable1},
	{ID: "T2", Paper: "Table 2: percentage of dynamic branches in each taken/transition joint class (misclassified cells marked *)", Run: runTable2},
	{ID: "S1", Paper: "§4.2 coverage arithmetic: taken {0,10} vs transition {0,1} (GAs) and {0,1,9,10} (PAs)", Run: runCoverage},
	{ID: "F1", Paper: "Figure 1: percent of dynamic branches per taken rate class", Run: runFig1},
	{ID: "F2", Paper: "Figure 2: percent of dynamic branches per transition rate class", Run: runFig2},
	{ID: "F3", Paper: "Figure 3: miss rates by taken rate class (optimal history per class)", Run: runFig3},
	{ID: "F4", Paper: "Figure 4: miss rates by transition rate class (optimal history per class)", Run: runFig4},
	{ID: "F5", Paper: "Figure 5: PAs miss rates by taken rate class and history length", Run: heatmapFig(sim.KindPAs, true, "Figure 5 — PAs miss rates, taken rate class x history length")},
	{ID: "F6", Paper: "Figure 6: PAs miss rates by transition rate class and history length", Run: heatmapFig(sim.KindPAs, false, "Figure 6 — PAs miss rates, transition rate class x history length")},
	{ID: "F7", Paper: "Figure 7: GAs miss rates by taken rate class and history length", Run: heatmapFig(sim.KindGAs, true, "Figure 7 — GAs miss rates, taken rate class x history length")},
	{ID: "F8", Paper: "Figure 8: GAs miss rates by transition rate class and history length", Run: heatmapFig(sim.KindGAs, false, "Figure 8 — GAs miss rates, transition rate class x history length")},
	{ID: "F9", Paper: "Figure 9: PAs miss rates by history length for taken classes 0,1,9,10", Run: lineFig(sim.KindPAs, true, "Figure 9 — PAs by history length, taken classes 0,1,9,10", "tac")},
	{ID: "F10", Paper: "Figure 10: PAs miss rates by history length for transition classes 0,1,9,10", Run: lineFig(sim.KindPAs, false, "Figure 10 — PAs by history length, transition classes 0,1,9,10", "trc")},
	{ID: "F11", Paper: "Figure 11: GAs miss rates by history length for taken classes 0,1,9,10", Run: lineFig(sim.KindGAs, true, "Figure 11 — GAs by history length, taken classes 0,1,9,10", "tac")},
	{ID: "F12", Paper: "Figure 12: GAs miss rates by history length for transition classes 0,1,9,10", Run: lineFig(sim.KindGAs, false, "Figure 12 — GAs by history length, transition classes 0,1,9,10", "trc")},
	{ID: "F13", Paper: "Figure 13: PAs miss rates for each joint class (optimal history per class)", Run: jointFig(sim.KindPAs, "Figure 13 — PAs joint-class miss rates (optimal history per cell)")},
	{ID: "F14", Paper: "Figure 14: GAs miss rates for each joint class (optimal history per class)", Run: jointFig(sim.KindGAs, "Figure 14 — GAs joint-class miss rates (optimal history per cell)")},
	{ID: "F15", Paper: "Figure 15: relative distance distribution of class 5/5 branches", Run: runFig15},
	{ID: "A1", Paper: "Ablation (§5.4): classification-guided hybrids vs monolithic predictors at ~32KB", Run: runHybridAblation},
	{ID: "A2", Paper: "Ablation (§5.3): class-derived confidence vs Jacobsen dynamic estimators", Run: runConfidenceAblation},
	{ID: "A3", Paper: "Ablation (§5.1): optimal history length per class and per joint cell", Run: runOptimalHistoryAblation},
	{ID: "A4", Paper: "Ablation (§2/§5.1): PHT interference with and without classification-based filtering", Run: runInterferenceAblation},
	{ID: "A5", Paper: "Ablation (§2): implicit classification (Bi-Mode/YAGS/Filter/gskew) vs explicit taken/transition classification", Run: runImplicitClassificationAblation},
	{ID: "X1", Paper: "Supplemental: per-benchmark coverage and miss rates (the paper reports suite aggregates only)", Run: runPerBenchmark},
}

// All returns every experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Find returns the experiment with the given ID (case-sensitive).
func Find(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}
