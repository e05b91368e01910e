// Command brsim runs one predictor configuration over a workload or a
// stored trace and reports its miss rate — the sim-bpred analogue.
//
// Usage:
//
//	brsim -bench vortex -input vortex.lit -pred pas -k 8 [-scale 0.1]
//	      [-membudget bytes] [-cachedir dir] [-memstats]
//	brsim -trace foo.btr -pred gshare -k 12
//
// Predictors: pas, gas, gag, pag, gshare, bimodal, lasttime, taken,
// tournament, agree, bimode, yags, filter, gskew, dynhybrid,
// transhybrid, takenhybrid (the profile-guided hybrids profile first).
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"os"

	"btr"
	"btr/internal/bpred"
	"btr/internal/core"
	"btr/internal/trace"
)

func main() {
	bench := flag.String("bench", "", "benchmark name")
	input := flag.String("input", "", "input set name")
	scale := flag.Float64("scale", 0.1, "workload scale")
	tracePath := flag.String("trace", "", "replay a BTR2 trace file instead of a workload")
	pred := flag.String("pred", "pas", "predictor kind")
	k := flag.Int("k", 8, "history length")
	memBudget := flag.Int64("membudget", 0, "stream the recording to a BTR2 spill file, keeping at most about this many resident bytes; replays page the rest back in (0 = retain the recording whole)")
	cachedir := flag.String("cachedir", "", "reuse recorded workload traces as BTR2 files in this directory across invocations (filenames carry the workload-registry fingerprint, so a dir written by older workloads self-invalidates)")
	memStats := flag.Bool("memstats", false, "report the recording's memory shape (encoded bytes, resident peak, page-ins) after the run")
	flag.Parse()

	// Workloads are recorded once: the profile-guided hybrids replay the
	// recording for their profiling pass and the measurement pass replays
	// it again, so the generator runs once no matter how many passes the
	// predictor needs. With -membudget the recording streams to a spill
	// file with a bounded resident prefix instead of being retained
	// whole; with -cachedir it persists as a BTR2 spill file, so repeated
	// invocations skip the generator entirely. A -trace file is opened
	// as a recording too, and replays the same way.
	var recorded *trace.Handle
	var cache *trace.Cache
	var key trace.CacheKey
	fromCache := false
	record := func() *trace.Handle { return nil }
	if *tracePath != "" {
		h, err := trace.OpenSpillHandle(*tracePath, 0)
		if err != nil {
			fatal(err)
		}
		recorded = h
	} else if *bench != "" && *input != "" {
		spec, err := btr.FindWorkload(*bench, *input)
		if err != nil {
			fatal(err)
		}
		key = trace.CacheKey{Name: spec.Name(), Fingerprint: spec.Fingerprint(), Scale: *scale}
		if *cachedir != "" {
			// The registry-fingerprinted constructor: spill files from a
			// stale workload generation are ignored, not trusted.
			cacheBytes := int64(btr.DefaultTraceCacheBytes)
			if *memBudget > 0 {
				cacheBytes = *memBudget
			}
			cache = btr.NewTraceCache(cacheBytes, *cachedir)
			if h, ok := cache.Get(key); ok {
				recorded = h
				fromCache = true
			}
		}
		// record runs the generator fresh — the first-run path, and the
		// recovery path when a cached spill file turns out corrupt.
		record = func() *trace.Handle {
			var h *trace.Handle
			if *memBudget > 0 {
				path := ""
				if cache != nil {
					path = cache.SpillPathFor(key)
				}
				if sr, err := trace.NewStreamRecorder(path, 0, *memBudget); err == nil {
					spec.Run(sr, *scale)
					if sh, err := sr.Seal(); err == nil {
						h = sh
					}
				}
				// Any streaming failure falls through to the resident path.
			}
			if h == nil {
				rec := trace.NewChunkRecorder(0)
				spec.Run(rec, *scale)
				h = trace.NewResidentHandle(rec.Trace())
			}
			if cache != nil {
				if err := cache.Put(key, h); err != nil {
					fmt.Fprintln(os.Stderr, "brsim: warning:", err)
				}
			}
			return h
		}
		if recorded == nil {
			recorded = record()
		}
	}

	// attempt builds the predictor and runs the measurement, converting
	// the paging panics a corrupt spill file raises into an error the
	// retry logic below can classify.
	var p btr.Predictor
	var res bpred.Result
	attempt := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if e, ok := r.(error); ok {
					err = e
					return
				}
				err = fmt.Errorf("%v", r)
			}
		}()
		if recorded == nil {
			return fmt.Errorf("need either -trace or -bench/-input")
		}
		p, err = buildPredictor(*pred, *k, recorded)
		if err != nil {
			return err
		}
		if cs, ok := p.(bpred.ChunkSweeper); ok {
			res, err = sweepRecorded(p.Name(), cs, recorded)
			return err
		}
		res, err = bpred.Run(p, recorded.Source())
		return err
	}
	err := attempt()
	if err != nil && fromCache && errors.Is(err, trace.ErrCorruptSpill) {
		// The cached spill file no longer decodes (checksum mismatch,
		// truncation). Quarantine it and re-record from the generator —
		// the rerun is bit-identical to an uncached run.
		fmt.Fprintf(os.Stderr, "brsim: warning: cached recording is corrupt (%v); quarantined, re-recording\n", err)
		cache.Quarantine(key)
		fromCache = false
		recorded = record()
		err = attempt()
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("predictor=%s events=%d misses=%d missrate=%.4f accuracy=%.2f%% state=%d bits\n",
		p.Name(), res.Events, res.Misses, res.MissRate(), 100*(1-res.MissRate()), p.SizeBits())
	if *memStats && recorded != nil {
		fmt.Printf("mem: encoded_bytes=%d resident_peak=%d page_ins=%d spilled=%v\n",
			recorded.EncodedBytes(), recorded.ResidentPeak(), recorded.PageIns(), recorded.Spilled())
	}
}

// sweepRecorded replays a recording chunk by chunk through p's column
// kernel and counts the misses by popcount: the same result as
// bpred.Run over the recording, without an interface call per event.
func sweepRecorded(name string, p bpred.ChunkSweeper, h *trace.Handle) (bpred.Result, error) {
	res := bpred.Result{Name: name}
	r := h.NewReader()
	var wrong []uint64
	for {
		d, ok, err := r.Next()
		if !ok {
			return res, err
		}
		words := (d.N + 63) / 64
		if len(wrong) < words {
			wrong = make([]uint64, words)
		}
		clear(wrong[:words])
		p.SweepChunk(d.PCs, d.Dirs, d.N, wrong[:words])
		for _, w := range wrong[:words] {
			res.Misses += int64(bits.OnesCount64(w))
		}
		res.Events += int64(d.N)
	}
}

func buildPredictor(kind string, k int, recorded *trace.Handle) (btr.Predictor, error) {
	switch kind {
	case "pas":
		return bpred.NewPAs(k), nil
	case "gas":
		return bpred.NewGAs(k), nil
	case "gag":
		return bpred.NewGAg(k), nil
	case "pag":
		return bpred.NewPAg(k, 12), nil
	case "gshare":
		return bpred.NewGShare(bpred.GAsPHTBits, k), nil
	case "bimodal":
		return bpred.NewBimodal(bpred.GAsPHTBits), nil
	case "lasttime":
		return bpred.NewLastTime(bpred.GAsPHTBits), nil
	case "taken":
		return bpred.NewAlwaysTaken(), nil
	case "agree":
		return bpred.NewAgree(bpred.GAsPHTBits, k, 14), nil
	case "tournament":
		return bpred.NewTournament("Tournament(PAs,gshare)",
			bpred.NewPAs(k), bpred.NewGShare(16, k), 12), nil
	case "bimode":
		return bpred.NewBiMode(16, 15, k), nil
	case "yags":
		return bpred.NewYAGS(16, 14, 8, k), nil
	case "filter":
		return bpred.NewFilter(14, 32, bpred.NewGShare(16, k)), nil
	case "gskew":
		return bpred.NewGSkew(16, k), nil
	case "dynhybrid":
		return bpred.NewDynamicClassHybrid(13, 64, bpred.HybridComponents{}), nil
	case "transhybrid", "takenhybrid":
		profiler := core.NewProfiler()
		recorded.Replay(profiler)
		classes := core.Classify(profiler.Profiles())
		if kind == "transhybrid" {
			return bpred.NewTransitionHybrid(classes, profiler.Profiles(), bpred.HybridComponents{}), nil
		}
		return bpred.NewTakenHybrid(classes, profiler.Profiles(), bpred.HybridComponents{}), nil
	default:
		return nil, fmt.Errorf("unknown predictor %q", kind)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "brsim:", err)
	os.Exit(1)
}
