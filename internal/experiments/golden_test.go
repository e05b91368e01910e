package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"btr/internal/sched"
	"btr/internal/sim"
	"btr/internal/workload"
)

// goldenDigests is the SHA-256 of every artifact rendered from the
// registry's specs, keyed scale → "suite" or benchmark → artifact id.
// The benchmark checks its runs against the same file; this test reads
// it in place.
const goldenDigests = "../../perfbench/digests.json"

// TestGoldenDigests renders all 24 artifacts over the full suite at
// scale 0.05 on a fresh cache bundle, then T2+F13 over each benchmark's
// inputs on the same bundle — a brserve request's shape, served from
// warm caches — and checks every artifact against the committed
// digests. It shares no code with the engine, so any change to a
// count, a rate or a rendered byte fails it.
func TestGoldenDigests(t *testing.T) {
	raw, err := os.ReadFile(goldenDigests)
	if err != nil {
		t.Fatal(err)
	}
	var set map[string]map[string]map[string]string
	if err := json.Unmarshal(raw, &set); err != nil {
		t.Fatalf("%s: %v", goldenDigests, err)
	}
	want := set["scale=0.05"]
	if len(want) == 0 {
		t.Fatalf("%s has no scale=0.05 digests", goldenDigests)
	}
	s := sched.New(0)
	defer s.Close()
	sh := NewShared(0, "")
	check := func(name string, specs []workload.Spec, ids []string) {
		t.Helper()
		if len(ids) != len(want[name]) {
			t.Fatalf("%s: rendering %d artifacts, digests.json has %d", name, len(ids), len(want[name]))
		}
		ctx := NewContextShared(sim.Config{Scale: 0.05, Sched: s}, sh)
		ctx.Specs = specs
		if d := ctx.Suite().Dropped; len(d) > 0 {
			t.Fatalf("%s: dropped inputs %v", name, d)
		}
		for _, id := range ids {
			e, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := e.Run(ctx, &buf); err != nil {
				t.Fatalf("%s/%s: %v", name, id, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want[name][id] {
				t.Errorf("%s/%s: digest %.12s, want %.12s", name, id, got, want[name][id])
			}
		}
	}

	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	check("suite", workload.Suite(), ids)

	var benches []string
	byBench := map[string][]workload.Spec{}
	for _, spec := range workload.Suite() {
		if byBench[spec.Bench] == nil {
			benches = append(benches, spec.Bench)
		}
		byBench[spec.Bench] = append(byBench[spec.Bench], spec)
	}
	if len(want) != len(benches)+1 {
		t.Fatalf("digests.json covers %d suites at scale 0.05, want the full suite and %d benchmarks", len(want), len(benches))
	}
	for _, bench := range benches {
		check(bench, byBench[bench], []string{"T2", "F13"})
	}
}
