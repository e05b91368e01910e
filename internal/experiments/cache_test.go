package experiments

import (
	"reflect"
	"sync/atomic"
	"testing"

	"btr/internal/rng"
	"btr/internal/sim"
	"btr/internal/trace"
	"btr/internal/workload"
)

// countingSpecs builds a tiny deterministic suite whose generator runs
// are observable through the returned counter.
func countingSpecs(runs *atomic.Int64) []workload.Spec {
	gen := func(t *workload.T, r *rng.Rand, target int64) {
		runs.Add(1)
		for t.N() < target {
			t.B(0, r.Uint64()&3 != 0)
			t.B(1, t.N()&1 == 0)
		}
	}
	return []workload.Spec{
		workload.NewSpec("synthA", "in", 2000, 11, gen),
		workload.NewSpec("synthB", "in", 3000, 23, gen),
	}
}

// TestSecondContextHitsCache is the cross-context reuse guarantee: a
// second context with matching (scale, chunk) config performs ZERO
// generator runs — every input replays the first context's recording.
func TestSecondContextHitsCache(t *testing.T) {
	var runs atomic.Int64
	specs := countingSpecs(&runs)
	cache := trace.NewCache(0, "", 0)
	cfg := sim.Config{Scale: 1, Workers: 2, Cache: cache}

	ctx1 := &Context{Cfg: cfg, Specs: specs}
	first := ctx1.Suite()
	if got := runs.Load(); got != int64(len(specs)) {
		t.Fatalf("first context ran generators %d times, want %d", got, len(specs))
	}

	ctx2 := &Context{Cfg: cfg, Specs: specs}
	second := ctx2.Suite()
	if got := runs.Load(); got != int64(len(specs)) {
		t.Fatalf("second context ran generators: %d total runs, want %d", got, len(specs))
	}
	if s := cache.Stats(); s.Hits < int64(len(specs)) {
		t.Fatalf("cache stats %+v: want >= %d hits", s, len(specs))
	}
	// Replayed-from-cache results must equal generated results.
	if first.Exec != second.Exec || first.Miss != second.Miss {
		t.Fatal("cache-served suite diverged from generated suite")
	}

	// A context at a different scale must not share those recordings.
	other := cfg
	other.Scale = 0.5
	(&Context{Cfg: other, Specs: specs}).Suite()
	if got := runs.Load(); got != int64(2*len(specs)) {
		t.Fatalf("mismatched scale reused recordings: %d runs, want %d", got, 2*len(specs))
	}
}

// TestSecondContextSkipsProfilingReplay is the pass-1 reuse guarantee
// layered above the trace cache: with a profile cache wired in, a
// second matching context performs zero pass-1 work — no generator runs
// and no profiling replay either; every input is a profile-cache hit
// whose recording comes back from the trace cache (which stays the
// recording's only owner, so its LRU budget still governs memory) —
// while producing identical results. Spelling the config's defaults
// differently (Scale 0 vs 1) must not defeat the reuse: both caches
// normalise their keys.
func TestSecondContextSkipsProfilingReplay(t *testing.T) {
	var runs atomic.Int64
	specs := countingSpecs(&runs)
	traces := trace.NewCache(0, "", 0)
	profiles := sim.NewProfileCache()
	cfg := sim.Config{Scale: 1, Workers: 2, Cache: traces, Profiles: profiles}

	first := (&Context{Cfg: cfg, Specs: specs}).Suite()
	ps := profiles.Stats()
	if ps.Hits != 0 || ps.Misses != int64(len(specs)) {
		t.Fatalf("first context profile stats %+v: want 0 hits, %d misses", ps, len(specs))
	}

	second := (&Context{Cfg: cfg, Specs: specs}).Suite()
	if got := runs.Load(); got != int64(len(specs)) {
		t.Fatalf("second context ran generators: %d total runs, want %d", got, len(specs))
	}
	ps = profiles.Stats()
	if ps.Hits != int64(len(specs)) {
		t.Fatalf("second context profile stats %+v: want %d hits (zero profiling replays)", ps, len(specs))
	}
	if first.Exec != second.Exec || first.Miss != second.Miss {
		t.Fatal("profile-cache-served suite diverged from computed suite")
	}
	if !reflect.DeepEqual(first.Distribution, second.Distribution) {
		t.Fatal("profile-cache-served distribution diverged")
	}

	// Scale 0 normalises to 1: a third context spelling the default
	// differently must reuse both caches, not recompute pass 1.
	aliased := cfg
	aliased.Scale = 0
	(&Context{Cfg: aliased, Specs: specs}).Suite()
	if got := runs.Load(); got != int64(len(specs)) {
		t.Fatalf("scale-0 context ran generators: %d total runs, want %d", got, len(specs))
	}
	if ps := profiles.Stats(); ps.Hits != int64(2*len(specs)) {
		t.Fatalf("scale-0 context profile stats %+v: want %d hits", ps, 2*len(specs))
	}

	// A different hard-distance window shapes the cached histogram, so
	// it must key separately: the run must miss the profile cache (the
	// recording itself still comes from the trace cache — no generator
	// runs) and produce correctly sized bins, not a foreign histogram.
	windowed := cfg
	windowed.HardDistanceWindow = 3
	wsuite := (&Context{Cfg: windowed, Specs: specs}).Suite()
	if got := runs.Load(); got != int64(len(specs)) {
		t.Fatalf("windowed context ran generators: %d total runs, want %d", got, len(specs))
	}
	if ps := profiles.Stats(); ps.Hits != int64(2*len(specs)) {
		t.Fatalf("windowed context hit the profile cache (%+v): different windows must not share entries", ps)
	}
	for _, r := range wsuite.Inputs {
		if got := len(r.HardDistances.Bins); got != 4 {
			t.Fatalf("windowed context histogram has %d bins, want 4", got)
		}
	}
}

// TestNewContextDefaultsToSharedCache pins that contexts built through
// NewContext participate in the process-wide caches (unless private
// caches are supplied).
func TestNewContextDefaultsToSharedCache(t *testing.T) {
	c1 := NewContext(sim.Config{Scale: 0.01})
	c2 := NewContext(sim.Config{Scale: 0.01})
	if c1.Cfg.Cache == nil || c1.Cfg.Cache != c2.Cfg.Cache {
		t.Fatal("contexts must share the process-wide cache by default")
	}
	if c1.Cfg.Profiles == nil || c1.Cfg.Profiles != c2.Cfg.Profiles {
		t.Fatal("contexts must share the process-wide profile cache by default")
	}
	private := trace.NewCache(0, "", 0)
	if NewContext(sim.Config{Cache: private}).Cfg.Cache != private {
		t.Fatal("explicit cache must be kept")
	}
	privateProf := sim.NewProfileCache()
	if NewContext(sim.Config{Profiles: privateProf}).Cfg.Profiles != privateProf {
		t.Fatal("explicit profile cache must be kept")
	}
}
