package sim

import (
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"btr/internal/sched"
	"btr/internal/trace"
	"btr/internal/workload"
)

// corruptFile XORs one bit three quarters of the way into the file —
// deep enough to land in chunk-frame territory, so either the probe
// scan or a page-in checksum must reject it.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	off := st.Size() * 3 / 4
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestSuiteRecoversFromCorruptSpill is the end-to-end degradation
// contract: damage every cached spill file on disk, rerun the suite
// against the same directory, and the run must quarantine the damage,
// re-record from the generators and produce a result bit-identical to
// the clean baseline — no dropped inputs, no wrong numbers.
func TestSuiteRecoversFromCorruptSpill(t *testing.T) {
	dir := t.TempDir()
	specs := []workload.Spec{
		testSpec(t, "perl", "primes.pl"),
		testSpec(t, "li", "ref.lsp"),
	}
	mk := func() Config {
		return Config{
			Scale:       testScale,
			ChunkEvents: 256,
			MemBudget:   4096,
			Cache:       trace.NewCache(4096, dir, workload.RegistryFingerprint()),
		}
	}

	seed := mk()
	baseline := RunSuite(specs, seed)
	if len(baseline.Dropped) != 0 {
		t.Fatalf("clean baseline dropped inputs: %v", baseline.Dropped)
	}
	for _, spec := range specs {
		path := seed.Cache.SpillPathFor(seed.cacheKey(spec))
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("baseline left no spill for %s: %v", spec.Name(), err)
		}
		corruptFile(t, path)
	}

	cfg := mk()
	got := RunSuite(specs, cfg)
	if len(got.Dropped) != 0 {
		t.Fatalf("recovery run dropped inputs: %v", got.Dropped)
	}
	assertSuitesEqual(t, "corrupt-spill-recovery", baseline, got)
	if q := cfg.Cache.Stats().Quarantined; q == 0 {
		t.Fatalf("Quarantined = %d, want >= 1 (stats: %+v)", q, cfg.Cache.Stats())
	}

	// The re-recorded spill files are sound: a third run replays them.
	cfg3 := mk()
	third := RunSuite(specs, cfg3)
	assertSuitesEqual(t, "post-recovery-replay", baseline, third)
	if q := cfg3.Cache.Stats().Quarantined; q != 0 {
		t.Fatalf("third run quarantined %d file(s); recovery left damage behind", q)
	}
}

// TestSuiteRecoversFromCorruptWindowPageIn damages one chunk-window
// page-in of each cached recording: the rerun, on a cold profile cache,
// replays the recording into pass 1 cleanly, and a one-shot bit flip
// scheduled right after pass 1's page-ins lands in the sweep's window.
// The window's ErrCorruptSpill must reach RunSuiteGroup's quarantine
// and retry, and the retried run must match the clean one bit for bit.
func TestSuiteRecoversFromCorruptWindowPageIn(t *testing.T) {
	dir := t.TempDir()
	specs := []workload.Spec{
		testSpec(t, "perl", "primes.pl"),
		testSpec(t, "li", "ref.lsp"),
	}
	cfg := Config{
		Scale:         testScale,
		ChunkEvents:   256,
		MemBudget:     4096,
		DecodedBudget: 6000,
		Cache:         trace.NewCache(4096, dir, workload.RegistryFingerprint()),
		Profiles:      NewProfileCache(),
	}
	baseline := RunSuite(specs, cfg)
	if len(baseline.Dropped) != 0 {
		t.Fatalf("clean baseline dropped inputs: %v", baseline.Dropped)
	}
	var fios []*trace.FaultingIO
	for _, spec := range specs {
		h, ok := cfg.Cache.Get(cfg.cacheKey(spec))
		if !ok {
			t.Fatalf("baseline left no recording for %s", spec.Name())
		}
		// Pass 1 pages in what a full replay pages in; the next read is
		// the window's.
		before := h.PageIns()
		h.Replay(trace.SinkFunc(func(uint64, bool) {}))
		pass1 := int(h.PageIns() - before)
		if pass1 == 0 {
			t.Fatalf("%s: recording fully resident; pass 1 would read no spilled chunk", spec.Name())
		}
		fio := trace.NewFaultingIO(trace.Fault{Op: trace.OpReadAt, Nth: pass1 + 1, Kind: trace.FaultBitFlip})
		h.SetSpillIO(fio)
		fios = append(fios, fio)
	}
	cfg.Profiles = NewProfileCache()
	got := RunSuite(specs, cfg)
	if len(got.Dropped) != 0 {
		t.Fatalf("recovery run dropped inputs: %v", got.Dropped)
	}
	for i, fio := range fios {
		if fio.Fired() != 1 {
			t.Fatalf("%s: bit flip fired %d times, want once; the damage never reached the window", specs[i].Name(), fio.Fired())
		}
	}
	if q := cfg.Cache.Stats().Quarantined; q == 0 {
		t.Fatalf("Quarantined = %d, want >= 1 (stats: %+v)", q, cfg.Cache.Stats())
	}
	assertSuitesEqual(t, "corrupt-window-page-in-recovery", baseline, got)
}

// TestSuiteGroupPreCanceled: a group canceled before submission drops
// every input with ErrCanceled, and the shared scheduler stays healthy
// for the next tenant.
func TestSuiteGroupPreCanceled(t *testing.T) {
	specs := []workload.Spec{
		testSpec(t, "perl", "primes.pl"),
		testSpec(t, "li", "ref.lsp"),
	}
	s := sched.New(4)
	defer s.Close()

	g := s.NewGroup()
	g.Cancel()
	res := RunSuiteGroup(g, specs, Config{Scale: testScale})
	if len(res.Dropped) != len(specs) {
		t.Fatalf("dropped %d inputs, want %d: %v", len(res.Dropped), len(specs), res.Dropped)
	}
	for _, d := range res.Dropped {
		if !errors.Is(d.Err, ErrCanceled) {
			t.Fatalf("dropped input %s with %v, want ErrCanceled", d.Spec.Name(), d.Err)
		}
	}
	if len(res.Inputs) != 0 {
		t.Fatalf("canceled run produced %d input results", len(res.Inputs))
	}

	// Same scheduler, fresh group: a clean run is unaffected.
	clean := RunSuiteGroup(s.NewGroup(), specs, Config{Scale: testScale})
	if len(clean.Dropped) != 0 {
		t.Fatalf("clean rerun dropped inputs: %v", clean.Dropped)
	}
	want := RunSuite(specs, Config{Scale: testScale})
	assertSuitesEqual(t, "post-cancel-clean-run", want, clean)
}

// TestSuiteGroupCancelMidRun races a cancel against a running suite.
// Whatever the interleaving, the invariants hold: Wait returns, every
// input either produced a result or was dropped with ErrCanceled, and
// the scheduler survives for a clean rerun.
func TestSuiteGroupCancelMidRun(t *testing.T) {
	specs := []workload.Spec{
		testSpec(t, "compress", "bigtest.in"),
		testSpec(t, "gcc", "genoutput.i"),
		testSpec(t, "perl", "primes.pl"),
		testSpec(t, "li", "ref.lsp"),
	}
	s := sched.New(4)
	defer s.Close()

	g := s.NewGroup()
	go func() {
		time.Sleep(2 * time.Millisecond)
		g.Cancel()
	}()
	res := RunSuiteGroup(g, specs, Config{Scale: testScale, ChunkEvents: 256})

	if len(res.Inputs)+len(res.Dropped) != len(specs) {
		t.Fatalf("inputs %d + dropped %d != %d specs",
			len(res.Inputs), len(res.Dropped), len(specs))
	}
	for _, d := range res.Dropped {
		if !errors.Is(d.Err, ErrCanceled) {
			t.Fatalf("dropped input %s with %v, want ErrCanceled", d.Spec.Name(), d.Err)
		}
	}

	clean := RunSuiteGroup(s.NewGroup(), specs, Config{Scale: testScale, ChunkEvents: 256})
	if len(clean.Dropped) != 0 {
		t.Fatalf("clean rerun after cancel dropped inputs: %v", clean.Dropped)
	}
}

// settleGoroutines waits for the goroutine count to return to base.
func settleGoroutines(t *testing.T, label string, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: goroutines %d, baseline %d", label, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSuiteRunsLeaveNoGoroutines counts goroutines around the run
// shapes that build or borrow schedulers: RunInput and RunSuite stop
// their private schedulers, and a canceled RunSuiteGroup leaves the
// caller's scheduler exactly as it found it.
func TestSuiteRunsLeaveNoGoroutines(t *testing.T) {
	spec := testSpec(t, "perl", "primes.pl")
	base := runtime.NumGoroutine()
	RunInput(spec, Config{Scale: testScale, Workers: 4})
	settleGoroutines(t, "RunInput", base)
	RunSuite([]workload.Spec{spec}, Config{Scale: testScale, Workers: 4})
	settleGoroutines(t, "RunSuite", base)

	s := sched.New(4)
	withSched := runtime.NumGoroutine()
	g := s.NewGroup()
	g.Cancel()
	RunSuiteGroup(g, []workload.Spec{spec}, Config{Scale: testScale})
	settleGoroutines(t, "canceled RunSuiteGroup", withSched)
	s.Close()
	settleGoroutines(t, "scheduler close", base)
}
