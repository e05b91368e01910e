package sim

import (
	"fmt"
	"strings"
	"testing"

	"btr/internal/rng"
	"btr/internal/workload"
)

// TestReplayMatchesRegenerate is the golden equivalence test for the
// record-once/replay-many engine: for several real workloads, the
// recorded sweep must reproduce the reference simulator, which
// regenerates the workload for its serial Predict+Update pass, in
// Exec, Miss, HardDistances and the class map, bit for bit.
func TestReplayMatchesRegenerate(t *testing.T) {
	workloads := []struct{ bench, input string }{
		{"compress", "bigtest.in"},
		{"gcc", "genoutput.i"},
		{"vortex", "vortex.lit"},
		{"perl", "primes.pl"},
	}
	for _, wl := range workloads {
		t.Run(wl.bench+"/"+wl.input, func(t *testing.T) {
			t.Parallel()
			spec := testSpec(t, wl.bench, wl.input)
			cfg := Config{Scale: testScale}
			assertMatchesReference(t, "replay", referenceFor(spec, cfg), RunInput(spec, cfg))
		})
	}
}

// TestReplayBankWorkerCountIrrelevant pins the sharding determinism
// claim: however many workers sweep RunInput's bank, the miss counts
// are identical.
func TestReplayBankWorkerCountIrrelevant(t *testing.T) {
	spec := testSpec(t, "m88ksim", "ctl.lit")
	base := RunInput(spec, Config{Scale: testScale, Workers: 1})
	for _, workers := range []int{2, 7, int(NumKinds) * NumHistories} {
		got := RunInput(spec, Config{Scale: testScale, Workers: workers})
		if *got.Miss != *base.Miss || got.Exec != base.Exec {
			t.Fatalf("Workers=%d changed results", workers)
		}
	}
}

// TestReplayChunkSizeIrrelevant pins that chunk granularity is invisible
// in results, including chunk sizes that leave a partial final chunk.
// Each leg is checked against the reference simulator, which has no
// chunks: the hard chain's carry across chunk boundaries is checked
// against a walk over the whole stream. vortex runs hard (5/5) branches
// at test scale (TestReferenceSeesHardBranches), li none.
func TestReplayChunkSizeIrrelevant(t *testing.T) {
	for _, spec := range []workload.Spec{
		testSpec(t, "li", "ref.lsp"),
		testSpec(t, "vortex", "vortex.lit"),
		testSpec(t, "compress", "bigtest.in"),
		testSpec(t, "perl", "primes.pl"),
	} {
		ref := referenceFor(spec, Config{Scale: testScale})
		for _, chunk := range []int{64, 1000, 1 << 20} {
			got := RunInput(spec, Config{Scale: testScale, ChunkEvents: chunk})
			assertMatchesReference(t, fmt.Sprintf("ChunkEvents=%d", chunk), ref, got)
		}
	}
}

// TestRunSuitePanickingWorkloadDropped pins suite resilience: a workload
// whose generator panics is dropped and reported — spec and recovered
// panic value included — and the rest of the suite completes.
func TestRunSuitePanickingWorkloadDropped(t *testing.T) {
	bad := workload.NewSpec("synthetic", "panics", 100, 1,
		func(tr *workload.T, r *rng.Rand, target int64) {
			panic("synthetic workload failure")
		})
	good := testSpec(t, "perl", "primes.pl")
	suite := RunSuite([]workload.Spec{bad, good}, Config{Scale: testScale, Workers: 2})
	if len(suite.Dropped) != 1 {
		t.Fatalf("Dropped = %v, want 1 entry", suite.Dropped)
	}
	d := suite.Dropped[0]
	if d.Spec.Bench != "synthetic" || d.Spec.Input != "panics" {
		t.Fatalf("dropped spec %q, want synthetic/panics", d.Spec.Name())
	}
	if d.Err == nil || !strings.Contains(d.Err.Error(), "synthetic workload failure") {
		t.Fatalf("dropped err %v must carry the panic value", d.Err)
	}
	if !strings.Contains(d.Error(), "synthetic/panics") {
		t.Fatalf("Error() = %q must name the input", d.Error())
	}
	if len(suite.Inputs) != 1 || suite.Inputs[0].Spec.Bench != "perl" {
		t.Fatalf("surviving inputs wrong: %d", len(suite.Inputs))
	}
	if suite.TotalEvents() == 0 {
		t.Fatal("surviving workload's events lost")
	}
}

// TestAggregateSkipsNil pins the nil-guard: a workload that produced no
// result must be dropped and reported, not panic the suite.
func TestAggregateSkipsNil(t *testing.T) {
	spec := testSpec(t, "perl", "primes.pl")
	res := RunInput(spec, Config{Scale: testScale})
	suite := Aggregate([]*InputResult{nil, res, nil}, Config{Scale: testScale})
	if len(suite.Dropped) != 2 {
		t.Fatalf("Dropped = %v, want 2 entries", suite.Dropped)
	}
	for _, d := range suite.Dropped {
		if d.Err == nil || d.Error() == "" {
			t.Fatalf("dropped entry %v must carry a cause", d)
		}
	}
	if len(suite.Inputs) != 1 {
		t.Fatalf("Inputs kept %d entries, want 1", len(suite.Inputs))
	}
	if suite.Exec != res.Exec {
		t.Fatal("surviving input's counts lost")
	}
	if suite.TotalEvents() != res.Events {
		t.Fatal("TotalEvents must ignore dropped inputs")
	}
	if got := Aggregate(nil, Config{}); len(got.Dropped) != 0 || len(got.Inputs) != 0 {
		t.Fatal("aggregating nothing must yield an empty suite")
	}
}
