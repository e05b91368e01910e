package sim

import (
	"reflect"
	"strings"
	"testing"

	"btr/internal/rng"
	"btr/internal/workload"
)

// TestReplayMatchesRegenerate is the golden equivalence test for the
// record-once/replay-many engine: for several real workloads, the sharded
// replay pipeline must reproduce the regenerate-twice pipeline's Exec,
// Miss, and HardDistances counts bit-for-bit.
func TestReplayMatchesRegenerate(t *testing.T) {
	workloads := []struct{ bench, input string }{
		{"compress", "bigtest.in"},
		{"gcc", "genoutput.i"},
		{"vortex", "vortex.lit"},
		{"perl", "primes.pl"},
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.bench+"/"+wl.input, func(t *testing.T) {
			t.Parallel()
			spec := testSpec(t, wl.bench, wl.input)
			cfg := Config{Scale: testScale}

			replay := RunInput(spec, cfg)

			legacy := cfg
			legacy.NoRecord = true
			direct := RunInput(spec, legacy)

			if replay.Events != direct.Events || replay.Sites != direct.Sites {
				t.Fatalf("events/sites diverged: %d/%d vs %d/%d",
					replay.Events, replay.Sites, direct.Events, direct.Sites)
			}
			if replay.Exec != direct.Exec {
				t.Fatal("Exec attribution diverged")
			}
			if *replay.Miss != *direct.Miss {
				for kind := Kind(0); kind < NumKinds; kind++ {
					for k := 0; k < NumHistories; k++ {
						if replay.Miss[kind][k] != direct.Miss[kind][k] {
							t.Fatalf("Miss diverged at %v k=%d: replay total %d, direct total %d",
								kind, k, replay.Miss[kind][k].Total(), direct.Miss[kind][k].Total())
						}
					}
				}
				t.Fatal("Miss diverged")
			}
			if !reflect.DeepEqual(replay.HardDistances.Bins, direct.HardDistances.Bins) {
				t.Fatalf("HardDistances diverged: %v vs %v",
					replay.HardDistances.Bins, direct.HardDistances.Bins)
			}
			if !reflect.DeepEqual(replay.Classes, direct.Classes) {
				t.Fatal("class maps diverged")
			}
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
// Each leg is checked against the regenerating NoRecord pipeline, which
// shares no code with the chunked sweep: the hard chain's carry across
// chunk boundaries is checked against a walk that has no chunks.
// vortex runs hard (5/5) branches at test scale, li none.
func TestReplayChunkSizeIrrelevant(t *testing.T) {
	for _, spec := range []workload.Spec{testSpec(t, "li", "ref.lsp"), testSpec(t, "vortex", "vortex.lit")} {
		oracle := RunInput(spec, Config{Scale: testScale, NoRecord: true})
		for _, chunk := range []int{64, 1000, 1 << 20} {
			got := RunInput(spec, Config{Scale: testScale, ChunkEvents: chunk})
			if *got.Miss != *oracle.Miss || got.Exec != oracle.Exec {
				t.Fatalf("%s: ChunkEvents=%d diverged from the NoRecord oracle", spec.Name(), chunk)
			}
			if !reflect.DeepEqual(got.HardDistances.Bins, oracle.HardDistances.Bins) {
				t.Fatalf("%s: ChunkEvents=%d: hard distances %v, NoRecord oracle %v",
					spec.Name(), chunk, got.HardDistances.Bins, oracle.HardDistances.Bins)
			}
		}
		if spec.Bench == "vortex" && oracle.HardDistances.Total() == 0 {
			t.Fatal("vortex ran no hard branches: the distance check is vacuous")
		}
	}
}

// TestRunSuitePanickingWorkloadDropped pins suite resilience: a workload
// whose generator panics is dropped and reported — spec and recovered
// panic value included — and the rest of the suite completes. The
// recorded sweep and the NoRecord pipeline must behave identically.
func TestRunSuitePanickingWorkloadDropped(t *testing.T) {
	cases := []struct {
		label string
		cfg   Config
	}{
		{"chunked", Config{Scale: testScale, Workers: 2}},
		{"norecord", Config{Scale: testScale, Workers: 2, NoRecord: true}},
	}
	for _, tc := range cases {
		bad := workload.NewSpec("synthetic", "panics", 100, 1,
			func(tr *workload.T, r *rng.Rand, target int64) {
				panic("synthetic workload failure")
			})
		good := testSpec(t, "perl", "primes.pl")
		suite := RunSuite([]workload.Spec{bad, good}, tc.cfg)
		if len(suite.Dropped) != 1 {
			t.Fatalf("%s: Dropped = %v, want 1 entry", tc.label, suite.Dropped)
		}
		d := suite.Dropped[0]
		if d.Spec.Bench != "synthetic" || d.Spec.Input != "panics" {
			t.Fatalf("%s: dropped spec %q, want synthetic/panics", tc.label, d.Spec.Name())
		}
		if d.Err == nil || !strings.Contains(d.Err.Error(), "synthetic workload failure") {
			t.Fatalf("%s: dropped err %v must carry the panic value", tc.label, d.Err)
		}
		if !strings.Contains(d.Error(), "synthetic/panics") {
			t.Fatalf("%s: Error() = %q must name the input", tc.label, d.Error())
		}
		if len(suite.Inputs) != 1 || suite.Inputs[0].Spec.Bench != "perl" {
			t.Fatalf("%s: surviving inputs wrong: %d", tc.label, len(suite.Inputs))
		}
		if suite.TotalEvents() == 0 {
			t.Fatalf("%s: surviving workload's events lost", tc.label)
		}
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
