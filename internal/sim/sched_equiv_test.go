package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"btr/internal/workload"
)

// TestScheduledMatchesLegacy is the golden equivalence test for the
// scheduled sweep: over several real workloads and worker counts
// {1, 4, GOMAXPROCS}, the scheduled engine must reproduce the reference
// simulator — the independent oracle, a serial Predict+Update walk over
// a regenerated stream — bit-for-bit, per input and in aggregate. One
// more config shrinks ChunkEvents to 256 so the inputs record many
// chunks and every slot chain genuinely runs as a chain of tasks over
// the chunk window.
func TestScheduledMatchesLegacy(t *testing.T) {
	specs := []workload.Spec{
		testSpec(t, "compress", "bigtest.in"),
		testSpec(t, "gcc", "genoutput.i"),
		testSpec(t, "vortex", "vortex.lit"),
		testSpec(t, "perl", "primes.pl"),
		testSpec(t, "li", "ref.lsp"),
	}
	base := Config{Scale: testScale}
	refs := make([]*refResult, len(specs))
	for i, spec := range specs {
		refs[i] = referenceFor(spec, base)
	}

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := base
		cfg.Workers = workers
		assertSuiteMatchesReference(t, fmt.Sprintf("scheduled/workers=%d", workers), refs, RunSuite(specs, cfg))
	}
	chunked := base
	chunked.ChunkEvents = 256
	assertSuiteMatchesReference(t, "scheduled/chunk=256", refs, RunSuite(specs, chunked))
}

func assertSuitesEqual(t *testing.T, label string, want, got *SuiteResult) {
	t.Helper()
	if len(want.Inputs) != len(got.Inputs) {
		t.Fatalf("%s: input counts %d vs %d", label, len(want.Inputs), len(got.Inputs))
	}
	for i := range want.Inputs {
		w, g := want.Inputs[i], got.Inputs[i]
		if w.Spec.Name() != g.Spec.Name() {
			t.Fatalf("%s: input order diverged: %s vs %s", label, w.Spec.Name(), g.Spec.Name())
		}
		if w.Events != g.Events || w.Sites != g.Sites {
			t.Fatalf("%s/%s: events/sites %d/%d vs %d/%d",
				label, w.Spec.Name(), w.Events, w.Sites, g.Events, g.Sites)
		}
		if w.Exec != g.Exec {
			t.Fatalf("%s/%s: Exec attribution diverged", label, w.Spec.Name())
		}
		if *w.Miss != *g.Miss {
			t.Fatalf("%s/%s: Miss counts diverged", label, w.Spec.Name())
		}
		if *w.Distribution != *g.Distribution {
			t.Fatalf("%s/%s: distributions diverged", label, w.Spec.Name())
		}
		if !reflect.DeepEqual(w.HardDistances.Bins, g.HardDistances.Bins) {
			t.Fatalf("%s/%s: hard distances diverged", label, w.Spec.Name())
		}
		if !reflect.DeepEqual(w.Classes, g.Classes) {
			t.Fatalf("%s/%s: class maps diverged", label, w.Spec.Name())
		}
	}
	if want.Exec != got.Exec || want.Miss != got.Miss {
		t.Fatalf("%s: aggregate counts diverged", label)
	}
	if !reflect.DeepEqual(want.Distribution, got.Distribution) {
		t.Fatalf("%s: distributions diverged", label)
	}
}

// TestScheduledSingleInputManyWorkers pins the fan-out balance claim:
// a one-input suite still uses every worker via sweep batches, and the
// result is identical to RunInput.
func TestScheduledSingleInputManyWorkers(t *testing.T) {
	spec := testSpec(t, "m88ksim", "ctl.lit")
	direct := RunInput(spec, Config{Scale: testScale})
	suite := RunSuite([]workload.Spec{spec}, Config{Scale: testScale, Workers: 8})
	if len(suite.Inputs) != 1 {
		t.Fatalf("inputs %d", len(suite.Inputs))
	}
	got := suite.Inputs[0]
	if got.Exec != direct.Exec || *got.Miss != *direct.Miss {
		t.Fatal("single-input scheduled run diverged from RunInput")
	}
}
