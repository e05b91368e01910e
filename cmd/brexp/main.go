// Command brexp regenerates the paper's tables and figures.
//
// Usage:
//
//	brexp [-scale 1.0] [-workers N] [-out results] [-run all|T1,F13,...]
//	      [-chunk N] [-cachedir dir]
//	      [-membudget bytes] [-decodedbudget bytes]
//
// Each experiment is written to <out>/<id>.txt; -list shows the catalog.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"btr"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale; 1.0 = Table 1 counts /1000")
	workers := flag.Int("workers", 0, "scheduler workers (0 = GOMAXPROCS)")
	chunk := flag.Int("chunk", 0, "recorded-trace chunk size in events (0 = default)")
	memBudget := flag.Int64("membudget", 0, "stream each recording to a BTR2 spill file during pass 1, keeping at most about this many resident bytes per input; replays page the rest back in (0 = retain recordings whole)")
	decodedBudget := flag.Int64("decodedbudget", 0, "byte budget for each input's decode-once chunk window during the bank sweep: every chunk is decoded once and dropped when the last sweep chain passes it, and at most max(2, budget/decoded-chunk bytes) chunks are admitted ahead of the slowest chain (0 = admit the whole recording, negative = one chunk at a time)")
	cachedir := flag.String("cachedir", "", "spill recorded traces to BTR2 files here and reuse them across runs (filenames carry the workload-registry fingerprint, so a dir written by older workloads self-invalidates)")
	out := flag.String("out", "results", "output directory")
	run := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	stdout := flag.Bool("stdout", false, "also echo each report to stdout")
	flag.Parse()

	if *list {
		for _, e := range btr.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Paper)
		}
		return
	}

	var ids []string
	if *run == "all" {
		for _, e := range btr.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*run, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	cfg := btr.SimConfig{
		Scale:         *scale,
		Workers:       *workers,
		ChunkEvents:   *chunk,
		MemBudget:     *memBudget,
		DecodedBudget: *decodedBudget,
	}
	if *cachedir != "" {
		// Under a memory budget the cache's resident frames are bounded
		// to it too; otherwise a full-resident cache would undo -membudget.
		cacheBytes := int64(btr.DefaultTraceCacheBytes)
		if *memBudget > 0 {
			cacheBytes = *memBudget
		}
		cfg.Cache = btr.NewTraceCache(cacheBytes, *cachedir)
	}
	// Build the scheduler explicitly (rather than letting the suite run
	// spin up a private one) so its counters survive the run and can be
	// reported below.
	pool := btr.NewScheduler(*workers)
	defer pool.Close()
	cfg.Sched = pool
	ctx := btr.NewExperimentContext(cfg)
	start := time.Now()
	// Run the shared sweep and the experiments on a cancelable group:
	// SIGINT/SIGTERM cancels it cooperatively (the suite and ablation
	// grids unwind at task boundaries) instead of leaving a killed
	// process and half-written artifacts. The handler stays installed
	// for the whole run, experiments included.
	group := pool.NewGroup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigc)
		close(sigc)
	}()
	go func() {
		if _, ok := <-sigc; ok {
			fmt.Fprintln(os.Stderr, "brexp: interrupted — canceling the run")
			group.Cancel()
		}
	}()
	if suite := ctx.SuiteGroup(group); group.Canceled() {
		for _, d := range suite.Dropped {
			fmt.Fprintf(os.Stderr, "brexp: dropped input %v\n", d)
		}
		fatal(fmt.Errorf("suite run canceled (%d inputs dropped); no artifacts written", len(suite.Dropped)))
	}
	if err := writeArtifacts(ctx, group, ids, *out, *stdout); err != nil {
		fatal(err)
	}
	suite := ctx.Suite()
	for _, d := range suite.Dropped {
		fmt.Fprintf(os.Stderr, "brexp: dropped input %v\n", d)
	}
	if m := suite.Mem; m.RecordedBytes > 0 {
		fmt.Printf("mem: recorded_bytes=%d resident_peak=%d page_ins=%d window_hits=%d redecodes=%d window_released=%d decoded_peak=%d\n",
			m.RecordedBytes, m.ResidentPeak, m.PageIns, m.DecodedHits, m.DecodedRedecodes, m.DecodedEvicted, m.DecodedPeak)
	}
	s := pool.Stats()
	fmt.Printf("sched: executed=%d steals=%d submits=%d parks=%d workers=%d\n",
		s.Executed, s.Steals, s.InjectorSubmits, s.Parks, s.Workers)
	if cfg.Cache != nil {
		s := cfg.Cache.Stats()
		fmt.Printf("trace cache: hits=%d misses=%d loads=%d spills=%d evicted=%d quarantined=%d resident=%d/%dB\n",
			s.Hits, s.Misses, s.Loads, s.Spills, s.Evicted, s.Quarantined, s.Resident, s.ResidentBytes)
		if s.Quarantined > 0 {
			fmt.Fprintf(os.Stderr, "brexp: warning: %d corrupt spill file(s) quarantined under %s (recordings were regenerated; run brtrace -verify %s to audit the rest)\n",
				s.Quarantined, *cachedir, *cachedir)
		}
		if s.SpillFailures > 0 {
			fmt.Fprintf(os.Stderr, "brexp: warning: %d trace spills failed; -cachedir %s is not persisting (memory reuse unaffected)\n",
				s.SpillFailures, *cachedir)
		}
	}
	fmt.Printf("done: %d experiments, %d dynamic branches, %d dropped inputs, %.1fs total\n",
		len(ids), suite.TotalEvents(), len(suite.Dropped), time.Since(start).Seconds())
}

// writeArtifacts renders each experiment to <out>/<id>.txt in order and
// stops at the first failure. Once group has been canceled, the artifact being written is removed — it may be
// partial — and the run stops with a "canceled" error.
func writeArtifacts(ctx *btr.ExperimentContext, group *btr.TaskGroup, ids []string, out string, echo bool) error {
	for _, id := range ids {
		path := filepath.Join(out, id+".txt")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		expStart := time.Now()
		err = btr.RunExperiment(ctx, id, f)
		cerr := f.Close()
		if group.Canceled() {
			os.Remove(path)
			return fmt.Errorf("run canceled during %s; its artifact was removed", id)
		}
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if cerr != nil {
			return cerr
		}
		fmt.Printf("%-4s -> %s (%.1fs)\n", id, path, time.Since(expStart).Seconds())
		if echo {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Println(string(data))
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "brexp:", err)
	os.Exit(1)
}
