package workload

import (
	"testing"

	"btr/internal/core"
	"btr/internal/trace"
)

// testScale keeps workload tests fast while still exercising thousands of
// dynamic branches per input.
const testScale = 0.002

func TestSuiteMatchesTable1Layout(t *testing.T) {
	specs := Suite()
	if len(specs) != 34 {
		t.Fatalf("suite has %d rows, Table 1 has 34", len(specs))
	}
	counts := map[string]int{}
	for _, s := range specs {
		counts[s.Bench]++
	}
	want := map[string]int{
		"compress": 1, "gcc": 24, "go": 1, "ijpeg": 3,
		"li": 1, "m88ksim": 1, "perl": 2, "vortex": 1,
	}
	for bench, n := range want {
		if counts[bench] != n {
			t.Fatalf("%s has %d inputs, want %d", bench, counts[bench], n)
		}
	}
}

func TestSpecNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Suite() {
		if seen[s.Name()] {
			t.Fatalf("duplicate spec %s", s.Name())
		}
		seen[s.Name()] = true
		if s.Target <= 0 {
			t.Fatalf("%s has non-positive target", s.Name())
		}
		if s.run == nil {
			t.Fatalf("%s has no run function", s.Name())
		}
	}
}

func TestPCBasesDisjointAcrossBenchmarks(t *testing.T) {
	bases := map[uint64]string{}
	for _, bench := range Benchmarks() {
		spec := ByBench()[bench][0]
		base := spec.PCBase()
		if other, ok := bases[base]; ok && other != bench {
			t.Fatalf("benchmarks %s and %s share PC base %#x", bench, other, base)
		}
		bases[base] = bench
	}
}

func TestFind(t *testing.T) {
	s, err := Find("compress", "bigtest.in")
	if err != nil || s.Bench != "compress" {
		t.Fatalf("Find: %v %+v", err, s)
	}
	if _, err := Find("nope", "nothing"); err == nil {
		t.Fatal("Find must fail for unknown specs")
	}
}

// TestSuiteReturnsACopy: the registry is built once and shared, so a
// caller that re-seeds or reorders the slice Suite returned (perfbench
// re-seeds every spec) must not change what later Suite and Find calls
// see.
func TestSuiteReturnsACopy(t *testing.T) {
	want := Suite()
	mutated := Suite()
	for i := range mutated {
		mutated[i].Seed ^= 0x5eed
		mutated[i].Input = "changed"
	}
	mutated[0], mutated[1] = mutated[1], mutated[0]
	got := Suite()
	if len(got) != len(want) {
		t.Fatalf("Suite has %d specs after mutation, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name() != want[i].Name() || got[i].Seed != want[i].Seed || got[i].Target != want[i].Target {
			t.Fatalf("Suite()[%d] = %s seed %d, want %s seed %d", i, got[i].Name(), got[i].Seed, want[i].Name(), want[i].Seed)
		}
		s, err := Find(want[i].Bench, want[i].Input)
		if err != nil || s.Seed != want[i].Seed || s.Fingerprint() != want[i].Fingerprint() {
			t.Fatalf("Find(%s) = %+v, %v after mutation, want seed %d", want[i].Name(), s, err, want[i].Seed)
		}
	}
	if _, err := Find(want[0].Bench, "changed"); err == nil {
		t.Fatal("Find resolved a name that only a mutated copy holds")
	}
}

func TestEveryWorkloadRunsAndMeetsTarget(t *testing.T) {
	for _, spec := range Suite() {
		spec := spec
		t.Run(spec.Name(), func(t *testing.T) {
			t.Parallel()
			sink := trace.NewStatsSink()
			n := spec.Run(sink, testScale)
			target := int64(float64(spec.Target) * testScale)
			if n < target {
				t.Fatalf("emitted %d events, target %d", n, target)
			}
			// Runs stop at an outer-iteration boundary; the overshoot
			// must stay bounded (no workload emits a whole giant phase
			// after passing its target).
			if n > 4*target+200000 {
				t.Fatalf("emitted %d events for target %d: overshoot too large", n, target)
			}
			st := sink.Stats()
			if st.StaticSites < 10 {
				t.Fatalf("only %d static sites; workload too trivial", st.StaticSites)
			}
			if st.TakenFraction() <= 0.05 || st.TakenFraction() >= 0.98 {
				t.Fatalf("taken fraction %.3f implausible", st.TakenFraction())
			}
		})
	}
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	for _, bench := range []string{"compress", "go", "li", "vortex"} {
		spec := ByBench()[bench][0]
		h1 := runHash(spec, testScale)
		h2 := runHash(spec, testScale)
		if h1 != h2 {
			t.Fatalf("%s: two runs at the same scale produced different streams", spec.Name())
		}
	}
}

func TestDifferentSeedsProduceDifferentStreams(t *testing.T) {
	a, err := Find("perl", "primes.pl")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Find("perl", "scrabbl.pl")
	if err != nil {
		t.Fatal(err)
	}
	if runHash(a, testScale) == runHash(b, testScale) {
		t.Fatal("different inputs produced identical streams")
	}
}

func TestScaleControlsLength(t *testing.T) {
	spec, err := Find("perl", "primes.pl")
	if err != nil {
		t.Fatal(err)
	}
	small := spec.Run(&trace.CountingSink{}, 0.001)
	large := spec.Run(&trace.CountingSink{}, 0.004)
	if large < 2*small {
		t.Fatalf("scale 4x grew events only %d -> %d", small, large)
	}
}

func TestZeroScaleDefaultsToFull(t *testing.T) {
	spec, err := Find("gcc", "genoutput.i")
	if err != nil {
		t.Fatal(err)
	}
	n := spec.Run(&trace.CountingSink{}, 0) // 0 means scale 1.0
	if n < spec.Target {
		t.Fatalf("scale 0 ran %d events, want >= %d", n, spec.Target)
	}
}

// runHash replays a spec and returns an order-sensitive FNV-style hash of
// its event stream.
func runHash(spec Spec, scale float64) uint64 {
	var h uint64 = 14695981039346656037
	spec.Run(trace.SinkFunc(func(pc uint64, taken bool) {
		h ^= pc
		h *= 1099511628211
		if taken {
			h ^= 0x5bd1e995
			h *= 1099511628211
		}
	}), scale)
	return h
}

// profileSpec profiles one spec and returns the per-branch profiles.
func profileSpec(t *testing.T, spec Spec, scale float64) map[uint64]*core.Profile {
	t.Helper()
	p := core.NewProfiler()
	spec.Run(p, scale)
	return p.Profiles()
}

func TestIjpegHasStrictAlternator(t *testing.T) {
	spec, err := Find("ijpeg", "penguin.ppm")
	if err != nil {
		t.Fatal(err)
	}
	profiles := profileSpec(t, spec, 0.01)
	pc := spec.PCBase() + uint64(jsBufParity)<<2
	p := profiles[pc]
	if p == nil {
		t.Fatal("alternator site never executed")
	}
	if got := p.TransitionRate(); got != 1.0 {
		t.Fatalf("double-buffer parity transition rate %v, want 1.0", got)
	}
	if jc := core.ClassOfProfile(p); jc.Transition != 10 {
		t.Fatalf("alternator in transition class %d, want 10", jc.Transition)
	}
}

func TestGuardSitesAreHeavilyBiased(t *testing.T) {
	cases := []struct {
		bench, input string
		site         uint32
		wantTaken    bool // direction the guard should almost always take
	}{
		{"compress", "bigtest.in", csByteASCII, true},
		{"gcc", "genoutput.i", gsValidByte, true},
		{"gcc", "genoutput.i", gsLineLimit, false},
		{"m88ksim", "ctl.lit", msIllegalOp, false},
		{"vortex", "vortex.lit", vsNodeValid, true},
		{"li", "ref.lsp", lsTagValid, true},
	}
	for _, c := range cases {
		spec, err := Find(c.bench, c.input)
		if err != nil {
			t.Fatal(err)
		}
		profiles := profileSpec(t, spec, testScale)
		pc := spec.PCBase() + uint64(c.site)<<2
		p := profiles[pc]
		if p == nil {
			t.Fatalf("%s site %d never executed", spec.Name(), c.site)
		}
		rate := p.TakenRate()
		if c.wantTaken && rate < 0.99 {
			t.Fatalf("%s site %d taken rate %.3f, want ~1", spec.Name(), c.site, rate)
		}
		if !c.wantTaken && rate > 0.01 {
			t.Fatalf("%s site %d taken rate %.3f, want ~0", spec.Name(), c.site, rate)
		}
	}
}

func TestVortexDescentComparesAreHard(t *testing.T) {
	spec, err := Find("vortex", "vortex.lit")
	if err != nil {
		t.Fatal(err)
	}
	profiles := profileSpec(t, spec, 0.005)
	pc := spec.PCBase() + uint64(vsScanLess)<<2
	p := profiles[pc]
	if p == nil {
		t.Fatal("descent compare never executed")
	}
	// Random-key compares should be moderately mixed in both metrics —
	// the 5/5-region generator the paper identifies in databases.
	if p.TakenRate() < 0.2 || p.TakenRate() > 0.85 {
		t.Fatalf("descent compare taken rate %.3f, want mid-range", p.TakenRate())
	}
	if p.TransitionRate() < 0.2 || p.TransitionRate() > 0.85 {
		t.Fatalf("descent compare transition rate %.3f, want mid-range", p.TransitionRate())
	}
}

func TestSuiteDistributionShape(t *testing.T) {
	// The paper's headline shape at suite level: most dynamic branches
	// live at the taken-rate edges, even more at low transition rates,
	// and transition coverage exceeds taken coverage.
	var dist core.Distribution
	for _, spec := range Suite() {
		p := core.NewProfiler()
		spec.Run(p, testScale)
		dist.AddProfiles(p.Profiles())
	}
	cov := core.ComputeCoverage(&dist)
	if cov.TakenEasy < 0.35 {
		t.Fatalf("taken {0,10} coverage %.3f too low; paper has 0.629", cov.TakenEasy)
	}
	if cov.TransitionEasyGAs <= cov.TakenEasy {
		t.Fatalf("transition coverage %.3f must exceed taken coverage %.3f",
			cov.TransitionEasyGAs, cov.TakenEasy)
	}
	if cov.TransitionEasyPAs < cov.TransitionEasyGAs {
		t.Fatal("PAs coverage must include GAs coverage")
	}
	if cov.MissedPAs <= 0 {
		t.Fatal("the misclassified population must be non-empty")
	}
	// The joint distribution respects the feasibility arc: the
	// high-transition/extreme-taken corners must be (near) empty.
	if f := dist.Fraction(0, 10) + dist.Fraction(10, 10); f > 0.001 {
		t.Fatalf("infeasible corner holds %.4f of the mass", f)
	}
}

func TestM88kGuestBranchesAppearAsDistinctSites(t *testing.T) {
	spec, err := Find("m88ksim", "ctl.lit")
	if err != nil {
		t.Fatal(err)
	}
	profiles := profileSpec(t, spec, 0.02)
	guest := 0
	for pc := range profiles {
		site := uint32((pc - spec.PCBase()) >> 2)
		if site >= msGuestBase {
			guest++
		}
	}
	if guest < 6 {
		t.Fatalf("only %d guest branch sites traced; expected the guest programs' branches", guest)
	}
}

func TestRegexEngineMatches(t *testing.T) {
	// Unit-check the perl substrate's NFA against known cases, with a
	// throwaway tracer.
	tr := &T{sink: trace.SinkFunc(func(uint64, bool) {})}
	cases := []struct {
		pat  string
		text string
		want bool
	}{
		{"[0-9]+", "123", true},
		{"[0-9]+", "abc", false},
		{"1[0-9]*7", "17", true},
		{"1[0-9]*7", "1237", true},
		{"1[0-9]*7", "237", false},
		{"[a-z]+g", "running", true},
		{"[a-z]+g", "RUN", false},
	}
	for _, c := range cases {
		prog := reCompile(c.pat)
		if got := reMatch(tr, prog, []byte(c.text)); got != c.want {
			t.Fatalf("reMatch(%q, %q) = %v, want %v", c.pat, c.text, got, c.want)
		}
	}
}

func TestLZWRoundTripsMostText(t *testing.T) {
	// The compress substrate's LZW must reproduce its input (modulo the
	// documented dictionary-reset divergence, which the small block here
	// does not hit).
	tr := &T{sink: trace.SinkFunc(func(uint64, bool) {})}
	d := &lzwDict{}
	text := []byte("the quick brown fox jumps over the lazy dog the quick brown fox")
	codes := lzwCompress(tr, d, text)
	out := lzwDecompress(tr, codes)
	if string(out) != string(text) {
		t.Fatalf("LZW round trip:\n in: %q\nout: %q", text, out)
	}
}
