package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"btr/internal/experiments"
	"btr/internal/trace"
	"btr/internal/workload"
)

// workloadDef fixes everything a workload passes to the program: the
// scale, the two byte budgets a user sets (0 = the program's default)
// and which artifacts a pass renders. Workers stay at the program's
// default (GOMAXPROCS); no engine knob is ever set.
type workloadDef struct {
	name          string
	scale         float64
	memBudget     int64
	decodedBudget int64
	ids           []string
	serve         bool
}

// ablationIDs are the artifacts that replay every input through extra
// predictors; only paper-all renders them.
var ablationIDs = map[string]bool{"A1": true, "A2": true, "A4": true, "A5": true}

func allIDs(keep func(string) bool) []string {
	var ids []string
	for _, e := range experiments.All() {
		if keep(e.ID) {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// suiteIDs are the 20 artifacts rendered from the suite result alone.
func suiteIDs() []string { return allIDs(func(id string) bool { return !ablationIDs[id] }) }

func workloadByName(name string) (workloadDef, error) {
	switch name {
	case "paper-all":
		return workloadDef{name: name, scale: 0.05,
			ids: allIDs(func(string) bool { return true })}, nil
	case "suite-streamed":
		// The CI streaming smoke's budgets: every recording spills and
		// nearly every chunk checkout re-decodes.
		return workloadDef{name: name, scale: 0.1, memBudget: 64 << 10, decodedBudget: 128 << 10,
			ids: suiteIDs()}, nil
	case "serve-mixed":
		return workloadDef{name: name, scale: 0.1, ids: serveIDs, serve: true}, nil
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have paper-all, suite-streamed, serve-mixed)", name)
}

// seedTolerance and seedTries bound the search for a re-seeded spec's
// seed (see specsFor).
const (
	seedTolerance = 0.02
	seedTries     = 256
)

// specsFor returns the suite for a seed at a scale: seed 0 is the
// registry's own specs; any other seed re-seeds every spec from (seed,
// spec name).
//
// A generator stops at the first outer-iteration boundary at or past
// its target, and where that boundary falls depends on the seed: at
// scale 0.05, li's realised count ranges over 0.43–1.02 M events across
// seeds, which took a paper-all pass from 3.5 s to 6 s. So a re-seeded spec
// takes the first of a seeded sequence of candidate seeds whose realised
// count at the scale is within seedTolerance of the registry spec's (the
// closest of seedTries candidates if none is), and every seed runs the
// same amount of work.
func specsFor(seed uint64, scale float64) []workload.Spec {
	specs := workload.Suite()
	if seed == 0 {
		return specs
	}
	discard := trace.SinkFunc(func(uint64, bool) {})
	for i := range specs {
		h := seed
		for _, b := range []byte(specs[i].Name()) {
			h = (h ^ uint64(b)) * 1099511628211
		}
		want := float64(specs[i].Run(discard, scale))
		best, bestOff := uint64(0), math.Inf(1)
		for try := uint64(0); try < seedTries && bestOff > seedTolerance; try++ {
			s := specs[i]
			s.Seed = splitmix(h + try)
			if off := math.Abs(float64(s.Run(discard, scale))/want - 1); off < bestOff {
				best, bestOff = s.Seed, off
			}
		}
		specs[i].Seed = best
	}
	return specs
}

// formatSeeds and parseSeeds carry a suite's spec seeds to a pass
// process, so the search in specsFor runs once per benchmark run.
func formatSeeds(specs []workload.Spec) string {
	parts := make([]string, len(specs))
	for i, s := range specs {
		parts[i] = strconv.FormatUint(s.Seed, 10)
	}
	return strings.Join(parts, ",")
}

func parseSeeds(list string) ([]workload.Spec, error) {
	specs := workload.Suite()
	parts := strings.Split(list, ",")
	if len(parts) != len(specs) {
		return nil, fmt.Errorf("%d spec seeds for %d specs", len(parts), len(specs))
	}
	for i, p := range parts {
		s, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("spec seed %q: %w", p, err)
		}
		specs[i].Seed = s
	}
	return specs, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// benchSpecNames lists "bench/input" names per benchmark, in registry
// order: the specs field of one serve-mixed request.
func benchSpecNames() (benches []string, names map[string][]string) {
	names = make(map[string][]string)
	for _, s := range workload.Suite() {
		if names[s.Bench] == nil {
			benches = append(benches, s.Bench)
		}
		names[s.Bench] = append(names[s.Bench], s.Name())
	}
	return benches, names
}

// requestOrder is the order of the benchmarks in one round of
// serve-mixed's requests: every round sends each benchmark once, in a
// permutation drawn from (seed, round). Which requests run at the same
// time sets the large benchmarks' latency, and with it p90, so a fresh
// order per round makes a run's tail an average over many pairings
// instead of the product of one fixed cycle.
func requestOrder(seed uint64, round int64) []string {
	benches, _ := benchSpecNames()
	r := rand.New(rand.NewSource(int64(splitmix(seed ^ splitmix(uint64(round))))))
	r.Shuffle(len(benches), func(i, j int) { benches[i], benches[j] = benches[j], benches[i] })
	return benches
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestSet maps scale -> suite ("suite" or a benchmark name) ->
// artifact id -> SHA-256 of the rendered artifact.
type digestSet map[string]map[string]map[string]string

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (digestSet, error) {
	var d digestSet
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func scaleKey(scale float64) string { return fmt.Sprintf("scale=%g", scale) }

// check compares rendered artifact digests with the expected ones and
// returns one line per mismatched or missing artifact.
func checkDigests(got, want map[string]string, ids []string) []string {
	var bad []string
	for _, id := range ids {
		switch g, w := got[id], want[id]; {
		case w == "":
			bad = append(bad, id+": no expected digest")
		case g != w:
			bad = append(bad, fmt.Sprintf("%s: digest %.12s, want %.12s", id, g, w))
		}
	}
	sort.Strings(bad)
	return bad
}

func (d digestSet) want(scale float64, suite string) map[string]string {
	return d[scaleKey(scale)][suite]
}

func joinProblems(p []string) string { return strings.Join(p, "; ") }
