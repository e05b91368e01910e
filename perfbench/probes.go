package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"btr/internal/bpred"
	"btr/internal/core"
	"btr/internal/trace"
	"btr/internal/workload"
)

// The traced run times each layer from outside, through the layer's
// public calls, at the workload's scale and budgets, with a span
// around every call. The program itself is not instrumented.

const mib = 1 << 20

// probeInputs runs the per-input layer calls for every spec: generate,
// encode, spill write, verify, page-in, resident decode, profile and
// classify, the 34-slot PAs/GAs sweep and the ablation predictors.
func (r *run) probeInputs(rec *recorder, m metricSet, specs []workload.Spec) error {
	var events, sites int64
	var gen, enc, spill, verify, pagein, decode, profile, classify, sweep, ablation time.Duration
	var spillBytes, ablationEvents int64
	dir, err := os.MkdirTemp(r.workDir, "spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for i, spec := range specs {
		root := rec.begin("bench.input", spec.Name(), -1)
		id := spec.Name()
		counter := &trace.CountingSink{}
		gen += rec.time("workload.gen", id, root, func() { spec.Run(counter, r.def.scale) })
		events += counter.N

		// The layers below consume the stream; a plain event slice
		// feeds each of them so none pays for another's decoding.
		var evs trace.Recorder
		spec.Run(&evs, r.def.scale)

		var tr *trace.ChunkedTrace
		enc += rec.time("trace.encode", id, root, func() {
			cr := trace.NewChunkRecorder(0)
			for _, e := range evs.Events {
				cr.Branch(e.PC, e.Taken)
			}
			tr = cr.Trace()
		})

		path := filepath.Join(dir, fmt.Sprintf("%d.btr", i))
		var werr error
		spill += rec.time("trace.spill_write", id, root, func() {
			sr, err := trace.NewStreamRecorder(path, 0, 0)
			if err != nil {
				werr = err
				return
			}
			for _, e := range evs.Events {
				sr.Branch(e.PC, e.Taken)
			}
			_, werr = sr.Seal()
		})
		if werr != nil {
			return fmt.Errorf("spill %s: %w", id, werr)
		}
		if st, err := os.Stat(path); err == nil {
			spillBytes += st.Size()
		}
		var rep trace.VerifyReport
		verify += rec.time("trace.verify", id, root, func() { rep = trace.VerifySpill(path) })
		if !rep.OK() {
			return fmt.Errorf("verify %s: %w", id, rep.Err)
		}
		var perr error
		pagein += rec.time("trace.pagein", id, root, func() { perr = decodeAll(path, nil) })
		if perr != nil {
			return fmt.Errorf("page-in %s: %w", id, perr)
		}
		os.Remove(path)

		h := trace.NewResidentHandle(tr)
		decode += rec.time("trace.decode", id, root, func() { perr = decodeAll("", h) })
		if perr != nil {
			return fmt.Errorf("decode %s: %w", id, perr)
		}
		var chunks []trace.DecodedChunk
		for k := 0; k < h.Chunks(); k++ {
			c, err := h.DecodeChunk(k)
			if err != nil {
				return err
			}
			chunks = append(chunks, c)
		}

		pr := core.NewProfiler()
		profile += rec.time("core.profile", id, root, func() {
			for _, e := range evs.Events {
				pr.Branch(e.PC, e.Taken)
			}
		})
		var classes core.ClassMap
		classify += rec.time("core.classify", id, root, func() { classes = core.Classify(pr.Profiles()) })
		sites += int64(pr.Sites())

		sweep += rec.time("bpred.sweep", id, root, func() { sweepBank(chunks) })

		ablation += rec.time("bpred.ablation", id, root, func() {
			for _, p := range ablationPredictors(classes, pr.Profiles()) {
				if _, err := bpred.Run(p, tr.Source()); err != nil {
					perr = err
				}
				ablationEvents += tr.Events()
			}
		})
		if perr != nil {
			return fmt.Errorf("ablation %s: %w", id, perr)
		}
		rec.end(root)
	}
	ev := float64(events)
	m.set("workload.gen_s", gen.Seconds(), "s")
	m.set("workload.events", ev, "count")
	m.set("trace.encode_ns_per_event", float64(enc.Nanoseconds())/ev, "ns/event")
	m.set("trace.spill_write_s", spill.Seconds(), "s")
	m.set("trace.spill_mib", float64(spillBytes)/mib, "MiB")
	m.set("trace.verify_s", verify.Seconds(), "s")
	m.set("trace.pagein_ns_per_event", float64(pagein.Nanoseconds())/ev, "ns/event")
	m.set("trace.decode_ns_per_event", float64(decode.Nanoseconds())/ev, "ns/event")
	m.set("core.profile_ns_per_event", float64(profile.Nanoseconds())/ev, "ns/event")
	m.set("core.classify_s", classify.Seconds(), "s")
	m.set("core.sites", float64(sites), "count")
	m.set("bpred.sweep_ns_per_event", float64(sweep.Nanoseconds())/(ev*bankSlots), "ns/event")
	m.set("bpred.ablation_ns_per_event", float64(ablation.Nanoseconds())/float64(ablationEvents), "ns/event")
	return nil
}

// decodeAll decodes every chunk of a handle into reused buffers; with a
// path it opens the spill file first (OpenSpillHandle), so the time
// includes the index scan and every page-in.
func decodeAll(path string, h *trace.Handle) error {
	if h == nil {
		var err error
		if h, err = trace.OpenSpillHandle(path, 0); err != nil {
			return err
		}
	}
	n := h.ChunkEvents()
	pcs, dirs := make([]uint64, n), make([]uint64, (n+63)/64)
	for k := 0; k < h.Chunks(); k++ {
		if _, err := h.DecodeChunkInto(k, pcs, dirs); err != nil {
			return err
		}
	}
	return nil
}

// bankSlots is the paper's sweep: PAs(k) and GAs(k) for k = 0..MaxHistory.
const bankSlots = 2 * (bpred.MaxHistory + 1)

// sweepBank runs every bank slot serially over the decoded chunks with
// the predictors' batch kernel, as the sim sweep does per slot.
func sweepBank(chunks []trace.DecodedChunk) {
	wrong := make([]uint64, (trace.DefaultChunkEvents+63)/64)
	for slot := 0; slot < bankSlots; slot++ {
		var p interface {
			SweepChunk(pcs, dirs []uint64, n int, wrong []uint64)
		}
		k := slot % (bpred.MaxHistory + 1)
		if slot <= bpred.MaxHistory {
			p = bpred.NewPAs(k)
		} else {
			p = bpred.NewGAs(k)
		}
		for _, c := range chunks {
			clear(wrong)
			p.SweepChunk(c.PCs, c.Dirs, c.N, wrong)
		}
	}
}

// ablationPredictors are the predictors the A1 and A5 ablations build
// per input, at the same sizes.
func ablationPredictors(classes core.ClassMap, profiles map[uint64]*core.Profile) []bpred.Predictor {
	return []bpred.Predictor{
		bpred.NewTransitionHybrid(classes, profiles, bpred.HybridComponents{}),
		bpred.NewTakenHybrid(classes, profiles, bpred.HybridComponents{}),
		bpred.NewDynamicClassHybrid(13, 64, bpred.HybridComponents{}),
		bpred.NewGShare(bpred.GAsPHTBits, 12),
		bpred.NewAgree(bpred.GAsPHTBits, 10, 14),
		bpred.NewTournament("Tournament(PAs8,gshare10)", bpred.NewPAs(8), bpred.NewGShare(16, 10), 12),
		bpred.NewBiMode(16, 15, 12),
		bpred.NewYAGS(16, 14, 8, 12),
		bpred.NewFilter(14, 32, bpred.NewGShare(16, 12)),
		bpred.NewGSkew(16, 12),
	}
}
