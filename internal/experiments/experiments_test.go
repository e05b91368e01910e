package experiments

import (
	"bytes"
	"strings"
	"testing"

	"btr/internal/sim"
	"btr/internal/workload"
)

// smallContext builds a context over a reduced suite so every experiment
// can run in test time. The suite keeps at least one input per benchmark
// so per-benchmark artifacts (T1, F15) have all their rows.
func smallContext() *Context {
	var specs []workload.Spec
	seen := map[string]int{}
	for _, s := range workload.Suite() {
		if seen[s.Bench] < 2 {
			seen[s.Bench]++
			specs = append(specs, s)
		}
	}
	return &Context{Cfg: sim.Config{Scale: 0.002, Workers: 2}, Specs: specs}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	want := []string{
		"T1", "T2", "S1",
		"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
		"F9", "F10", "F11", "F12", "F13", "F14", "F15",
		"A1", "A2", "A3", "A4", "A5", "X1",
	}
	have := map[string]bool{}
	for _, e := range all {
		if have[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		have[e.ID] = true
		if e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	// All promises paper order; brexp -run all and brserve's "all"
	// render in it.
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("All()[%d] = %s, want %s (paper order %v)", i, e.ID, want[i], want)
		}
	}
}

func TestFind(t *testing.T) {
	if _, err := Find("T2"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	ctx := smallContext()
	keywords := map[string]string{
		"T1":  "Benchmarks",
		"T2":  "joint class",
		"S1":  "coverage",
		"F1":  "taken rate class",
		"F2":  "transition rate class",
		"F3":  "Miss rates by taken",
		"F4":  "Miss rates by transition",
		"F5":  "PAs",
		"F6":  "PAs",
		"F7":  "GAs",
		"F8":  "GAs",
		"F9":  "tac",
		"F10": "trc",
		"F11": "tac",
		"F12": "trc",
		"F13": "joint-class",
		"F14": "joint-class",
		"F15": "distance",
		"A1":  "hybrid",
		"A2":  "Confidence",
		"A3":  "Optimal history",
		"A4":  "interference",
		"A5":  "implicit",
		"X1":  "per-benchmark",
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(ctx, &buf); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			out := buf.String()
			if len(out) < 40 {
				t.Fatalf("%s output suspiciously short:\n%s", e.ID, out)
			}
			if kw := keywords[e.ID]; kw != "" && !strings.Contains(strings.ToLower(out), strings.ToLower(kw)) {
				t.Fatalf("%s output missing keyword %q:\n%s", e.ID, kw, out)
			}
		})
	}
}

func TestSuiteSharedAcrossExperiments(t *testing.T) {
	ctx := smallContext()
	s1 := ctx.Suite()
	s2 := ctx.Suite()
	if s1 != s2 {
		t.Fatal("Suite() must compute once and share")
	}
}

func TestTable1RowsMatchSpecs(t *testing.T) {
	ctx := smallContext()
	var buf bytes.Buffer
	if err := runTable1(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, spec := range ctx.Specs {
		if !strings.Contains(out, spec.Input) {
			t.Fatalf("T1 missing row for %s:\n%s", spec.Name(), out)
		}
	}
	if !strings.Contains(out, "total") {
		t.Fatal("T1 missing total row")
	}
}

func TestTable2HasTotalsAndMarks(t *testing.T) {
	ctx := smallContext()
	var buf bytes.Buffer
	if err := runTable2(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Total") {
		t.Fatal("T2 missing totals")
	}
	if !strings.Contains(out, "misclassified mass") {
		t.Fatal("T2 missing misclassified summary")
	}
}

func TestCoverageOrdering(t *testing.T) {
	// The reproduction's headline: transition coverage > taken coverage.
	ctx := smallContext()
	var buf bytes.Buffer
	if err := runCoverage(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	suite := ctx.Suite()
	d := &suite.Distribution
	taken := d.CoverageTaken(0, 10)
	transGAs := d.CoverageTransition(0, 1)
	transPAs := d.CoverageTransition(0, 1, 9, 10)
	if !(transPAs >= transGAs && transGAs > taken) {
		t.Fatalf("coverage ordering broken: taken=%.3f gas=%.3f pas=%.3f",
			taken, transGAs, transPAs)
	}
}
