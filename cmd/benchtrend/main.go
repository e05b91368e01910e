// Command benchtrend diffs two BENCH_<pr>.json snapshots (see
// cmd/benchjson) and fails on benchmark movement past a threshold, so
// CI tracks the suite-sweep perf trajectory across PRs instead of
// re-gating one hand-picked pair with awk.
//
// Usage:
//
//	benchtrend -old BENCH_4.json -new BENCH_6.json \
//	           -baseline SuiteSweepRegenerate -threshold 10 -failat 25
//
// A snapshot taken with go test -count > 1 holds one record per run;
// each benchmark's ns/op is the median of its runs, and a move counts
// only when it is larger than the interquartile range of the old
// snapshot's runs: inside that spread it is noise, however many percent
// it is.
//
// Snapshots are usually measured on different machines (the old one is
// committed by a previous PR, the new one comes off the current
// runner), so raw ns/op is not comparable across them. With -baseline,
// every benchmark is first normalised to the named benchmark *within
// its own snapshot* — the regenerating pipeline is the natural yardstick,
// since every PR carries it unchanged — and the thresholds apply to the
// movement of that ratio. Movement past -threshold is flagged ("!");
// only movement past -failat fails the run: normalisation damps but
// does not remove cross-machine noise (generator-bound and sweep-bound
// benchmarks scale differently across CPUs), so the flag line is the
// trend signal and the fail line catches real cliffs. Benchmarks
// present on only one side are listed but never fail the gate; a
// missing baseline downgrades the run to a report-only diff (exit 0)
// rather than gating on cross-machine noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
)

// Benchmark mirrors cmd/benchjson's record (the fields the diff needs).
type Benchmark struct {
	Name         string  `json:"name"`
	Workers      int     `json:"workers"`
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	// runs holds, sorted, the ns/op of every record with this name and
	// worker count, one per go test -count run; load sets NsPerOp to
	// their median.
	runs []float64
}

// iqr returns the interquartile range of b's runs by nearest rank (with
// five runs, the 4th smallest less the 2nd); 0 for a single run.
func (b Benchmark) iqr() float64 { return b.runs[len(b.runs)*3/4] - b.runs[len(b.runs)/4] }

// Report mirrors cmd/benchjson's document.
type Report struct {
	PR         int         `json:"pr"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

type key struct {
	name    string
	workers int
}

func load(path string) (*Report, map[key]Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[key]Benchmark, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		k := key{b.Name, b.Workers}
		b.runs = append(m[k].runs, b.NsPerOp)
		m[k] = b
	}
	for k, b := range m {
		slices.Sort(b.runs)
		b.NsPerOp = (b.runs[(len(b.runs)-1)/2] + b.runs[len(b.runs)/2]) / 2
		m[k] = b
	}
	return &rep, m, nil
}

// baselineNs returns the baseline benchmark's ns/op in one snapshot,
// preferring the entry whose worker count matches w (benchjson splits
// names by GOMAXPROCS suffix), falling back to any worker count.
func baselineNs(m map[key]Benchmark, name string, w int) float64 {
	if b, ok := m[key{name, w}]; ok && b.NsPerOp > 0 {
		return b.NsPerOp
	}
	for k, b := range m {
		if k.name == name && b.NsPerOp > 0 {
			return b.NsPerOp
		}
	}
	return 0
}

func main() {
	oldPath := flag.String("old", "", "previous BENCH_<pr>.json snapshot")
	newPath := flag.String("new", "", "current BENCH_<pr>.json snapshot")
	baseline := flag.String("baseline", "SuiteSweepRegenerate", "benchmark every other one is normalised to within its snapshot; empty = compare raw ns/op")
	threshold := flag.Float64("threshold", 10, "flag benchmarks that move by more than this percentage")
	failat := flag.Float64("failat", 25, "fail when a benchmark slows by more than this percentage (0 = fail at -threshold)")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchtrend: need -old and -new")
		os.Exit(2)
	}

	oldRep, oldM, err := load(*oldPath)
	if err != nil {
		fatal(err)
	}
	newRep, newM, err := load(*newPath)
	if err != nil {
		fatal(err)
	}
	if *failat <= 0 {
		*failat = *threshold
	}
	fmt.Printf("benchtrend: PR %d -> PR %d, flag at %.0f%%, fail at %.0f%%\n",
		oldRep.PR, newRep.PR, *threshold, *failat)

	gate := true
	if *baseline == "" {
		fmt.Println("comparing raw ns/op (no baseline normalisation)")
	} else if baselineNs(oldM, *baseline, 0) <= 0 || baselineNs(newM, *baseline, 0) <= 0 {
		fmt.Printf("baseline %q missing from a snapshot; report-only raw diff, gate disabled\n", *baseline)
		gate = false
		*baseline = ""
	}

	var keys []key
	for k := range newM {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].workers < keys[j].workers
	})

	failed := 0
	for _, k := range keys {
		nb := newM[k]
		ob, ok := oldM[k]
		if !ok {
			fmt.Printf("  %-28s w=%-2d NEW  %12.0f ns/op\n", k.name, k.workers, nb.NsPerOp)
			continue
		}
		oldV, newV, spread := ob.NsPerOp, nb.NsPerOp, ob.iqr()
		unit := "ns/op"
		if *baseline != "" && k.name != *baseline {
			base := baselineNs(oldM, *baseline, k.workers)
			oldV, spread = ob.NsPerOp/base, spread/base
			newV = nb.NsPerOp / baselineNs(newM, *baseline, k.workers)
			unit = "x-of-" + *baseline
		}
		move := 100 * (newV/oldV - 1)
		mark := " "
		switch {
		case math.Abs(newV-oldV) <= spread:
			// Inside the old runs' spread: noise, whatever the percentage.
		case move > *threshold:
			mark = "!"
			// The baseline itself (and everything when the gate is off)
			// is reported raw across machines, never gated.
			if move > *failat && gate && (*baseline == "" || k.name != *baseline) {
				failed++
			}
		case move < -*threshold:
			mark = "+"
		}
		fmt.Printf("%s %-28s w=%-2d %10.3f -> %10.3f %-22s (%+.1f%%, old IQR %.3f)\n",
			mark, k.name, k.workers, oldV, newV, unit, move, spread)
	}
	for k := range oldM {
		if _, ok := newM[k]; !ok {
			fmt.Printf("  %-28s w=%-2d GONE\n", k.name, k.workers)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchtrend: %d benchmark(s) slowed by more than %.0f%%\n", failed, *failat)
		os.Exit(1)
	}
	fmt.Println("benchtrend: ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtrend:", err)
	os.Exit(1)
}
