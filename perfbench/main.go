// Command perfbench is the repository's benchmark: it runs one of three
// workloads (paper-all, suite-streamed, serve-mixed) against the
// program built from this checkout, checks every artifact, and prints
// its metrics as one JSON object on the last line of standard output.
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"btr/internal/workload"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("metric %s is %v", name, v))
	}
	m[name] = metric{v, unit}
}

// Set-up is repeated this many times per run and reported as a median.
const setupRuns = 3

func main() {
	child := flag.String("child", "", "internal: run as a pass process (pass) or a server process (serve)")
	name := flag.String("workload", "", "paper-all, suite-streamed or serve-mixed")
	seed := flag.Uint64("seed", 0, "0 = the registry's specs, checked by digest; other seeds re-seed every spec")
	seconds := flag.Int("seconds", 25, "how long the timed part of the run lasts")
	traced := flag.Int("trace", 0, "1 = the traced per-layer run instead of the end-to-end one")
	path := flag.String("path", "", "internal: pass on the retained or streamed path instead of the workload's")
	spans := flag.String("spans", "", "internal: write the pass's spans to this file")
	specSeeds := flag.String("specseeds", "", "internal: the pass's spec seeds, comma-separated (empty = the registry's)")
	gen := flag.Bool("gen-digests", false, "print the digest set of every workload's artifacts (seed 0) and exit")
	flag.Parse()

	if err := mainErr(*child, *name, *seed, *seconds, *traced == 1, *path, *spans, *specSeeds, *gen); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(child, name string, seed uint64, seconds int, traced bool, path, spans, specSeeds string, gen bool) error {
	if gen {
		return genDigests()
	}
	if child == "serve" {
		return serverChild()
	}
	def, err := workloadByName(name)
	if err != nil {
		return err
	}
	if child == "pass" {
		switch path {
		case "retained":
			def.memBudget, def.decodedBudget, def.ids = 0, 0, suiteIDs()
		case "streamed":
			streamed, _ := workloadByName("suite-streamed")
			def.memBudget, def.decodedBudget, def.ids = streamed.memBudget, streamed.decodedBudget, suiteIDs()
		}
		specs := workload.Suite()
		if specSeeds != "" {
			if specs, err = parseSeeds(specSeeds); err != nil {
				return err
			}
		}
		return passChild(def, specs, spans)
	}
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	buildDir, err := filepath.Abs(".bench_build")
	if err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	r := &run{def: def, seed: seed, specs: specsFor(seed, def.scale), seconds: time.Duration(seconds) * time.Second,
		self: self, workDir: workDir, digests: digests}

	cpu0 := readCPUTimes()
	m := metricSet{}
	var spanList []span
	var samples map[string]any
	switch {
	case traced:
		if spanList, err = r.tracedRun(m); err != nil {
			return err
		}
	case def.serve:
		s := r.runServe(setupRuns, runtime.NumCPU())
		samples = s.samples()
		err = s.metrics(m)
	default:
		b := r.runBatch(setupRuns)
		samples = b.samples()
		err = b.metrics(m)
	}
	if err != nil {
		return fmt.Errorf("%v: %s", err, joinProblems(r.problems))
	}
	host := hostSince(cpu0)

	// The run record: diagnostics, problems and spans beside the metrics.
	record := map[string]any{"workload": def.name, "seed": seed, "trace": traced, "host": host,
		"metrics": m, "samples": samples, "problems": r.problems, "spans": spanList}
	recPath := filepath.Join(buildDir, "records",
		fmt.Sprintf("%s-%s-seed%d-trace%t.json", time.Now().Format("20060102T150405"), def.name, seed, traced))
	if err := os.MkdirAll(filepath.Dir(recPath), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(record)
	if err != nil {
		return err
	}
	if err := os.WriteFile(recPath, data, 0o644); err != nil {
		return err
	}
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(os.Stderr, "host: %s\nrecord: %s\n", hostLine, recPath)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "failed:", p)
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{
		"correct":   r.failed == 0 && r.attempt > 0,
		"attempted": r.attempt,
		"failed":    r.failed,
		"metrics":   m,
	})
}
