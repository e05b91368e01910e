package sim

import (
	"fmt"
	"runtime"
	"testing"

	"btr/internal/sched"
	"btr/internal/trace"
	"btr/internal/workload"
)

// TestStreamedMatrixMatchesRetained is the golden equivalence matrix
// for the out-of-core streaming pipeline: {retained, spill-backed with
// small budgets, one-chunk window, wide window} × workers
// {1, 4, GOMAXPROCS} must all produce bit-identical SuiteResults. A
// small ChunkEvents forces many chunks at test scale so the budgets
// genuinely page and slide the chunk window; the memory-shape counters
// are asserted to prove the streamed runs actually ran out of core
// rather than trivially passing because everything fit, and that the
// window decoded every chunk exactly once within its budget.
func TestStreamedMatrixMatchesRetained(t *testing.T) {
	specs := []workload.Spec{
		testSpec(t, "compress", "bigtest.in"),
		testSpec(t, "gcc", "genoutput.i"),
		testSpec(t, "li", "ref.lsp"),
	}
	base := Config{Scale: testScale, ChunkEvents: 256}
	retained := RunSuite(specs, base)
	if m := retained.Mem; m.PageIns != 0 {
		t.Fatalf("retained run unexpectedly streamed: %+v", m)
	}
	for _, r := range retained.Inputs {
		if r.Mem.ResidentPeak != r.Mem.RecordedBytes {
			t.Fatalf("%s: retained recording not fully resident: %+v", r.Spec.Name(), r.Mem)
		}
	}
	assertWindowDecodedOnce(t, "retained", retained, 0)

	budgets := []struct {
		name    string
		mem     int64 // Config.MemBudget
		decoded int64 // Config.DecodedBudget
	}{
		{"spill+window", 4096, 6000},
		{"spill+one-chunk", 4096, -1},
		{"resident+window", 0, 6000},
		{"spill+wide-window", 4096, 20000},
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, b := range budgets {
			cfg := base
			cfg.Workers = workers
			cfg.MemBudget = b.mem
			cfg.DecodedBudget = b.decoded
			label := fmt.Sprintf("%s/workers=%d", b.name, workers)
			got := RunSuite(specs, cfg)
			assertSuitesEqual(t, label, retained, got)
			m := got.Mem
			if b.mem > 0 {
				for _, r := range got.Inputs {
					if r.Mem.ResidentPeak >= r.Mem.RecordedBytes {
						t.Fatalf("%s/%s: streaming kept everything resident (peak %d, recorded %d)",
							label, r.Spec.Name(), r.Mem.ResidentPeak, r.Mem.RecordedBytes)
					}
					// The window decodes each chunk once, so a spilled
					// chunk is paged in once, never more.
					if limit := int64(r.Recorded.Chunks()); r.Mem.PageIns > limit {
						t.Fatalf("%s/%s: %d page-ins for %d chunks (limit %d)",
							label, r.Spec.Name(), r.Mem.PageIns, r.Recorded.Chunks(), limit)
					}
				}
				if m.PageIns == 0 {
					t.Fatalf("%s: streamed run never paged from its spill", label)
				}
			}
			assertWindowDecodedOnce(t, label, got, b.decoded)
		}
	}
}

// assertWindowDecodedOnce checks every input's chunk-window counters:
// no chunk decoded twice, every chunk released once its last chain
// passed it (so none is left in the window), and — under a decoded
// budget — the resident peak within max(budget, two decoded chunks).
func assertWindowDecodedOnce(t *testing.T, label string, s *SuiteResult, budget int64) {
	t.Helper()
	for _, r := range s.Inputs {
		m, chunks := r.Mem, int64(r.Recorded.Chunks())
		if m.DecodedRedecodes != 0 {
			t.Fatalf("%s/%s: %d re-decodes (mem %+v)", label, r.Spec.Name(), m.DecodedRedecodes, m)
		}
		if m.DecodedEvicted != chunks {
			t.Fatalf("%s/%s: window released %d of %d chunks (mem %+v)", label, r.Spec.Name(), m.DecodedEvicted, chunks, m)
		}
		if m.DecodedHits == 0 {
			t.Fatalf("%s/%s: no chain was served a resident chunk (mem %+v)", label, r.Spec.Name(), m)
		}
		if limit := max(budget, 2*trace.DecodedChunkBytes(r.Recorded.ChunkEvents())); budget != 0 && m.DecodedPeak > limit {
			t.Fatalf("%s/%s: decoded peak %d above %d (mem %+v)", label, r.Spec.Name(), m.DecodedPeak, limit, m)
		}
	}
}

// TestStreamedCacheRoundTrip pins the streamed recording's cache
// interplay: with a spill directory, a budgeted run writes its
// recording straight into the cache's spill path, and a second context
// (fresh cache over the same directory) replays it bit-identically
// without running any generator.
func TestStreamedCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specs := []workload.Spec{testSpec(t, "perl", "primes.pl")}
	mk := func() Config {
		return Config{
			Scale:       testScale,
			ChunkEvents: 256,
			MemBudget:   4096,
			Cache:       trace.NewCache(4096, dir, workload.RegistryFingerprint()),
		}
	}
	first := RunSuite(specs, mk())
	second := RunSuite(specs, mk())
	assertSuitesEqual(t, "streamed-cache-second-run", first, second)
	if second.Mem.PageIns == 0 {
		t.Fatal("second run should have paged the cached spill back in")
	}
	retained := RunSuite(specs, Config{Scale: testScale, ChunkEvents: 256})
	assertSuitesEqual(t, "streamed-cache-vs-retained", retained, first)
}

// TestProfileCacheEviction pins the profile cache's byte budget: a
// budget smaller than two entries keeps only the most recent one,
// counts the eviction, and an evicted input simply recomputes —
// bit-identically — on its next run.
func TestProfileCacheEviction(t *testing.T) {
	spec1 := testSpec(t, "gcc", "genoutput.i")
	spec2 := testSpec(t, "li", "ref.lsp")
	pc := NewProfileCacheBytes(1) // below any entry: every put evicts the previous
	cache := trace.NewCache(0, "", workload.RegistryFingerprint())
	cfg := Config{Scale: testScale, Profiles: pc, Cache: cache}

	first := RunInput(spec1, cfg)
	RunInput(spec2, cfg)
	s := pc.Stats()
	if s.Resident != 1 {
		t.Fatalf("resident entries = %d, want 1 (budget keeps only the newest)", s.Resident)
	}
	if s.Evicted == 0 {
		t.Fatalf("stats %+v: second put must evict the first entry", s)
	}
	if s.ResidentBytes <= 0 {
		t.Fatalf("stats %+v: resident entry not charged", s)
	}

	// spec1 was evicted: its rerun misses the profile cache, recomputes,
	// and must match the original bit for bit.
	misses := pc.Stats().Misses
	again := RunInput(spec1, cfg)
	if pc.Stats().Misses == misses {
		t.Fatal("rerun of the evicted input should have missed the profile cache")
	}
	if first.Exec != again.Exec || *first.Miss != *again.Miss {
		t.Fatal("recomputed result diverged from the original")
	}

	// A budget with room keeps both and serves hits.
	roomy := NewProfileCacheBytes(1 << 20)
	cfg2 := Config{Scale: testScale, Profiles: roomy, Cache: trace.NewCache(0, "", workload.RegistryFingerprint())}
	RunInput(spec1, cfg2)
	RunInput(spec1, cfg2)
	if s := roomy.Stats(); s.Hits == 0 || s.Evicted != 0 || s.Resident != 1 {
		t.Fatalf("roomy cache stats %+v: want a hit, no evictions", s)
	}
}

// TestWarmHitSkipsSweep pins what a profile-cache hit costs: a warm
// rerun on the same caches equals the cold run and the regenerating
// oracle bit for bit, builds no chunk window for any input, and runs at
// most one scheduler task per input — the profile task that publishes
// the cached result.
func TestWarmHitSkipsSweep(t *testing.T) {
	specs := []workload.Spec{
		testSpec(t, "compress", "bigtest.in"),
		testSpec(t, "gcc", "genoutput.i"),
		testSpec(t, "li", "ref.lsp"),
	}
	s := sched.New(4)
	defer s.Close()
	cfg := Config{
		Scale:       testScale,
		ChunkEvents: 256,
		Sched:       s,
		Cache:       trace.NewCache(0, "", workload.RegistryFingerprint()),
		Profiles:    NewProfileCache(),
	}
	cold := RunSuite(specs, cfg)
	executed := s.Stats().Executed
	warm := RunSuite(specs, cfg)
	if n := s.Stats().Executed - executed; n > int64(len(specs)) {
		t.Fatalf("warm run executed %d tasks for %d inputs, want at most one per input", n, len(specs))
	}
	if h := cfg.Profiles.Stats().Hits; h != int64(len(specs)) {
		t.Fatalf("profile cache hits %d, want %d", h, len(specs))
	}
	for _, r := range warm.Inputs {
		if r.Mem.DecodedEvicted != 0 {
			t.Fatalf("%s: warm run built a chunk window (mem %+v)", r.Spec.Name(), r.Mem)
		}
		if r.Recorded == nil {
			t.Fatalf("%s: warm result has no recording for the ablations", r.Spec.Name())
		}
	}
	oracle := RunSuite(specs, Config{Scale: testScale, NoRecord: true})
	assertSuitesEqual(t, "warm-vs-cold", cold, warm)
	assertSuitesEqual(t, "warm-vs-norecord", oracle, warm)
	assertSuitesEqual(t, "cold-vs-norecord", oracle, cold)
}

// TestProfileCacheEntryIsPerSite pins a profile-cache entry's size at
// O(sites): one input profiled at 4x the events, each run into a fresh
// cache, must be charged far less than 4x the bytes. An entry holding
// anything per event would grow with the trace.
func TestProfileCacheEntryIsPerSite(t *testing.T) {
	spec := testSpec(t, "li", "ref.lsp")
	charge := func(scale float64) (events, bytes int64) {
		pc := NewProfileCacheBytes(0)
		res := RunInput(spec, Config{Scale: scale, Profiles: pc})
		return res.Events, pc.Stats().ResidentBytes
	}
	smallEvents, smallBytes := charge(testScale)
	bigEvents, bigBytes := charge(4 * testScale)
	eventRatio := float64(bigEvents) / float64(smallEvents)
	byteRatio := float64(bigBytes) / float64(smallBytes)
	if eventRatio < 3.5 {
		t.Fatalf("events grew %.2fx (%d -> %d), want ~4x", eventRatio, smallEvents, bigEvents)
	}
	if byteRatio >= 1.5 {
		t.Fatalf("entry grew %.2fx (%d -> %d bytes) while events grew %.2fx: entries must be O(sites)",
			byteRatio, smallBytes, bigBytes, eventRatio)
	}
}
