// Command benchjson converts `go test -bench` output into the
// machine-readable BENCH_<pr>.json snapshot CI emits for every PR, so
// the suite-sweep perf trajectory can be tracked without re-parsing
// benchmark logs.
//
// Usage:
//
//	go test -run='^$' -bench=SuiteSweep -benchtime=3x -count 5 . | benchjson -pr 4 -out BENCH_4.json
//
// Each benchmark line contributes one record with its name, worker
// count (the -N GOMAXPROCS suffix Go appends), ns/op, and any custom
// metrics such as events/op, so -count 5 keeps five records per
// benchmark: every sample, which benchtrend pairs round by round.
// Non-benchmark lines (goos/goarch/cpu headers, PASS trailers) annotate
// or are skipped.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Workers    int     `json:"workers"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// EventsPerOp is the pipeline's dynamic-branch throughput metric; 0
	// for micro-benchmarks that do not report it.
	EventsPerOp float64 `json:"events_per_op,omitempty"`
	// EventsPerSec is the derived throughput (EventsPerOp normalised by
	// wall time), the number paper-scale runtime projections divide by.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// Extra holds any other custom metrics, keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the emitted document.
type Report struct {
	PR         int         `json:"pr"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	pr := flag.Int("pr", 0, "PR number stamped into the report")
	out := flag.String("out", "", "output path (default stdout)")
	flag.Parse()

	rep := Report{PR: *pr}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

// parseLine decodes one "BenchmarkName-P  N  v unit  v unit ..." line.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	var b Benchmark
	b.Name = strings.TrimPrefix(fields[0], "Benchmark")
	// The testing package appends "-P" (GOMAXPROCS) only when P > 1.
	b.Workers = 1
	if i := strings.LastIndex(b.Name, "-"); i >= 0 {
		if w, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Workers = w
			b.Name = b.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "events/op":
			b.EventsPerOp = v
		default:
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[unit] = v
		}
	}
	if b.NsPerOp > 0 && b.EventsPerOp > 0 {
		b.EventsPerSec = b.EventsPerOp / (b.NsPerOp / 1e9)
	}
	return b, b.NsPerOp > 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
