package main

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"btr/internal/experiments"
	"btr/internal/sim"
	"btr/internal/trace"
	"btr/internal/workload"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 0}, {19, 0}, {20, 50}, {99, 89}, {100, 90}, {150, 93}, {200, 95}, {1000, 99}, {10000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The rule itself: at least ten samples lie beyond the returned
	// percentile, and fewer than ten beyond the next one.
	for n := 20; n <= 3000; n++ {
		p := tailPercentile(n)
		if beyond := float64(n) * float64(100-p) / 100; beyond < 10-1e-9 {
			t.Fatalf("n=%d: p%d has only %.2f samples beyond it", n, p, beyond)
		}
		if beyond := float64(n) * float64(100-p-1) / 100; beyond >= 10-1e-9 {
			t.Fatalf("n=%d: p%d also has %.2f samples beyond it", n, p+1, beyond)
		}
	}
}

func TestLatencyTailFallsBackToMedian(t *testing.T) {
	few := []float64{5, 1, 3}
	if got := latencyTail(few, 90); got != 3 {
		t.Errorf("latencyTail of 3 samples = %v, want the median 3", got)
	}
	var many []float64
	for i := 1; i <= 100; i++ {
		many = append(many, float64(i))
	}
	if got := latencyTail(many, 90); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("latencyTail(1..100, 90) = %v, want 90.1", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "bench.pass", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "sim.suite", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "experiments.A1", Parent: 0, Start: ms(20), End: ms(50)},  // overlaps its sibling
		{Name: "experiments.T2", Parent: 0, Start: ms(90), End: ms(120)}, // runs past its parent
		{Name: "trace.decode", Parent: 2, Start: ms(25), End: ms(35)},
	}
	want := []time.Duration{ms(100 - 40 - 10), ms(20), ms(30 - 10), ms(30), ms(10)}
	got := selfTime(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelf(spans)
	for layer, w := range map[string]time.Duration{"bench": ms(50), "sim": ms(20), "experiments": ms(50), "trace": ms(10)} {
		if layers[layer] != w {
			t.Errorf("layer %s self time = %v, want %v", layer, layers[layer], w)
		}
	}
}

// TestDigestCatchesOneByteChange renders a real artifact, checks it
// against the committed digest, then changes one byte.
func TestDigestCatchesOneByteChange(t *testing.T) {
	digests, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	def, _ := workloadByName("serve-mixed")
	_, names := benchSpecNames()
	var specs []workload.Spec
	for _, n := range names["compress"] {
		bench, input, _ := strings.Cut(n, "/")
		s, err := workload.Find(bench, input)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	ctx := experiments.NewContext(sim.Config{Scale: def.scale})
	ctx.Specs = specs
	e, err := experiments.Find("T2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	want := digests.want(def.scale, "compress")
	art := buf.Bytes()
	if bad := checkDigests(map[string]string{"T2": digest(art)}, want, []string{"T2"}); len(bad) > 0 {
		t.Fatalf("unmodified artifact rejected: %v", bad)
	}
	for _, i := range []int{0, len(art) / 2, len(art) - 1} {
		changed := append([]byte(nil), art...)
		changed[i] ^= 1
		if bad := checkDigests(map[string]string{"T2": digest(changed)}, want, []string{"T2"}); len(bad) != 1 {
			t.Errorf("artifact with byte %d changed passed the digest check", i)
		}
	}
	if bad := checkDigests(map[string]string{}, want, []string{"T2"}); len(bad) != 1 {
		t.Error("a missing artifact passed the digest check")
	}
}

func TestSeeds(t *testing.T) {
	reg := workload.Suite()
	for i, s := range specsFor(0, 0.05) {
		if s.Seed != reg[i].Seed {
			t.Fatalf("seed 0 changed %s", s.Name())
		}
	}
	a, b := specsFor(7, 0.05), specsFor(7, 0.05)
	discard := trace.SinkFunc(func(uint64, bool) {})
	for i := range a {
		if a[i].Seed != b[i].Seed || a[i].Seed == reg[i].Seed {
			t.Fatalf("seed 7 on %s: %d then %d (registry %d)", a[i].Name(), a[i].Seed, b[i].Seed, reg[i].Seed)
		}
		got, want := a[i].Run(discard, 0.05), reg[i].Run(discard, 0.05)
		if off := math.Abs(float64(got)/float64(want) - 1); off > seedTolerance {
			t.Errorf("seed 7 on %s: %d events, registry %d", a[i].Name(), got, want)
		}
	}
	if got, err := parseSeeds(formatSeeds(a)); err != nil || got[3].Seed != a[3].Seed {
		t.Errorf("spec seeds did not survive formatting: %v", err)
	}
	benches, _ := benchSpecNames()
	sort.Strings(benches)
	if x, y := strings.Join(requestOrder(3, 5), ","), strings.Join(requestOrder(3, 5), ","); x != y {
		t.Errorf("seed 3 round 5 request order differs between calls: %s vs %s", x, y)
	}
	orders := map[string]bool{}
	for round := int64(0); round < 8; round++ {
		order := requestOrder(3, round)
		orders[strings.Join(order, ",")] = true
		sort.Strings(order)
		if strings.Join(order, ",") != strings.Join(benches, ",") {
			t.Fatalf("round %d does not send each benchmark once: %v", round, order)
		}
	}
	if len(orders) < 2 {
		t.Error("every round of seed 3 has the same request order")
	}
}
