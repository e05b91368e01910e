// Command benchtrend compares a parent commit's benchmarks with a
// change's, measured in alternating rounds on one machine, and fails on
// a slowdown that is both large and consistent.
//
// Usage:
//
//	benchtrend -old parent.json -new change.json -threshold 10 -failat 25
//
// Both files are cmd/benchjson documents with one record per round: the
// i-th record of a benchmark (name and worker count) in -old ran next to
// the i-th in -new, so the two form a pair measured under the same
// machine load. For every benchmark the tool reports the median over its
// pairs of the change/parent ns/op ratio and in how many pairs the
// change was slower. A median that moves by more than -threshold percent
// is flagged ("!" slower, "+" faster). A benchmark fails the run only
// when its median slows by more than -failat percent and the change was
// slower in at least 8 of every 10 pairs: a round or two lost to noise
// moves neither. Benchmarks present on one side only are listed and
// never fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
)

// Benchmark mirrors cmd/benchjson's record (the fields the diff needs).
type Benchmark struct {
	Name    string  `json:"name"`
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"ns_per_op"`
}

// Report mirrors cmd/benchjson's document.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

type key struct {
	name    string
	workers int
}

// load returns every benchmark's ns/op, one entry per record in file
// order: the rounds, which pair by position with the other side's.
func load(path string) (map[key][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[key][]float64)
	for _, b := range rep.Benchmarks {
		k := key{b.Name, b.Workers}
		m[k] = append(m[k], b.NsPerOp)
	}
	return m, nil
}

func main() {
	oldPath := flag.String("old", "", "the parent's benchjson document, one record per round")
	newPath := flag.String("new", "", "the change's benchjson document, one record per round")
	threshold := flag.Float64("threshold", 10, "flag benchmarks whose median ratio moves by more than this percentage")
	failat := flag.Float64("failat", 25, "fail when a benchmark's median ratio slows by more than this percentage in at least 8 of 10 pairs (0 = fail at -threshold)")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchtrend: need -old and -new")
		os.Exit(2)
	}
	oldM, err := load(*oldPath)
	if err != nil {
		fatal(err)
	}
	newM, err := load(*newPath)
	if err != nil {
		fatal(err)
	}
	if *failat <= 0 {
		*failat = *threshold
	}
	fmt.Printf("benchtrend: change/parent ns/op ratio per pair, flag at %.0f%%, fail at %.0f%% with 8 of 10 pairs slower\n",
		*threshold, *failat)

	keys := make([]key, 0, len(newM))
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
		olds, ok := oldM[k]
		if !ok {
			fmt.Printf("  %-28s w=%-2d NEW\n", k.name, k.workers)
			continue
		}
		news := newM[k]
		n := min(len(olds), len(news))
		ratios := make([]float64, n)
		slower := 0
		for i := range ratios {
			ratios[i] = news[i] / olds[i]
			if ratios[i] > 1 {
				slower++
			}
		}
		slices.Sort(ratios)
		median := (ratios[(n-1)/2] + ratios[n/2]) / 2
		move := 100 * (median - 1)
		mark := " "
		switch {
		case move > *threshold:
			mark = "!"
			if move > *failat && slower*10 >= 8*n {
				failed++
			}
		case move < -*threshold:
			mark = "+"
		}
		fmt.Printf("%s %-28s w=%-2d median ratio %.3f (%+.1f%%), slower in %d/%d, ratios %.3f..%.3f\n",
			mark, k.name, k.workers, median, move, slower, n, ratios[0], ratios[n-1])
	}
	for k := range oldM {
		if _, ok := newM[k]; !ok {
			fmt.Printf("  %-28s w=%-2d GONE\n", k.name, k.workers)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchtrend: %d benchmark(s) slowed by more than %.0f%% in at least 8 of 10 pairs\n", failed, *failat)
		os.Exit(1)
	}
	fmt.Println("benchtrend: ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtrend:", err)
	os.Exit(1)
}
