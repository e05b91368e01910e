// Command brtrace generates, inspects and converts branch traces.
//
// Usage:
//
//	brtrace -list                                    # list workloads
//	brtrace -bench gcc -input expr.i -o expr.btr     # record a trace
//	brtrace -bench gcc -input expr.i -o expr.btr \
//	        -membudget 1048576                       # streamed, bounded memory
//	brtrace -info expr.btr                           # summarise a trace
//	brtrace -text expr.btr                           # dump as text
//	brtrace -verify cachedir                         # audit spill files
//
// Recording and -info also report the in-memory chunked format's stats
// (chunks, events, encoded bytes, bytes/event) alongside the BTR1 file
// codec, for quick trace audits. With -membudget the recording goes
// through the out-of-core streaming recorder instead and the report
// shows the memory shape a bounded-budget run has: peak resident chunk
// bytes, and the spill page-ins of a sequential audit replay.
//
// -verify audits spill files — one file, or every *.btr under a
// directory (a trace-cache dir): header, frame structure, event counts,
// and, for BTR2, every chunk's checksum and decodability. One PASS/FAIL
// line per file; the exit status is nonzero if any file fails.
// Quarantined and temporary files (*.quarantined, *.tmp*) are skipped.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"btr"
	"btr/internal/trace"
)

func main() {
	list := flag.Bool("list", false, "list benchmark/input specs and exit")
	bench := flag.String("bench", "", "benchmark name")
	input := flag.String("input", "", "input set name")
	scale := flag.Float64("scale", 0.1, "workload scale")
	out := flag.String("o", "", "output trace file (BTR2 with -membudget > 0, else BTR1)")
	memBudget := flag.Int64("membudget", 0, "record through the streaming recorder with at most about this many resident bytes, then audit-replay the spill (0 = buffer in memory as before)")
	info := flag.String("info", "", "summarise an existing trace file")
	text := flag.String("text", "", "dump an existing trace file as text")
	verify := flag.String("verify", "", "audit a spill file, or every *.btr under a directory; exits nonzero if any file fails")
	flag.Parse()

	switch {
	case *verify != "":
		runVerify(*verify)
	case *list:
		fmt.Printf("%-10s %-18s %s\n", "benchmark", "input", "target@scale1.0")
		for _, s := range btr.Workloads() {
			fmt.Printf("%-10s %-18s %d\n", s.Bench, s.Input, s.Target)
		}
	case *info != "":
		f, err := os.Open(*info)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			fatal(err)
		}
		// One pass feeds both the stream summary and a model of the
		// in-memory chunked recording (columns are never retained, so
		// arbitrarily large traces audit in O(1) memory), reporting
		// the file codec and the simulator's resident format side by
		// side.
		sink := trace.NewStatsSink()
		mem := trace.NewChunkStatsSink(0)
		if _, err := trace.Copy(trace.Tee(sink, mem), r); err != nil {
			fatal(err)
		}
		fmt.Println(sink.Stats())
		if fi, err := f.Stat(); err == nil {
			fmt.Printf("btr1: file_bytes=%d\n", fi.Size())
		}
		fmt.Printf("chunked: %s\n", mem.Stats())
	case *text != "":
		f, err := os.Open(*text)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			fatal(err)
		}
		if _, err := trace.WriteText(os.Stdout, r); err != nil {
			fatal(err)
		}
	case *bench != "" && *input != "" && *out != "" && *memBudget > 0:
		// Streamed recording: events go straight to the BTR2 file with a
		// bounded resident prefix — the memory shape a paper-scale run
		// has — then an audit replay pages every chunk back in, one
		// chunk's columns at a time, and reports the memory-shape
		// counters.
		spec, err := btr.FindWorkload(*bench, *input)
		if err != nil {
			fatal(err)
		}
		sr, err := trace.NewStreamRecorder(*out, 0, *memBudget)
		if err != nil {
			fatal(err)
		}
		n := spec.Run(sr, *scale)
		h, err := sr.Seal()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d events to %s (streamed)\n", n, *out)
		fmt.Printf("stream: chunks=%d encoded_bytes=%d resident_peak=%d\n",
			h.Chunks(), h.EncodedBytes(), h.ResidentPeak())
		var events int64
		for r := h.ChunkReader(); ; {
			_, _, n, ok := r.NextChunk()
			if !ok {
				break
			}
			events += int64(n)
		}
		fmt.Printf("replay: events=%d page_ins=%d\n", events, h.PageIns())
	case *bench != "" && *input != "" && *out != "":
		spec, err := btr.FindWorkload(*bench, *input)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w, err := trace.NewWriter(f)
		if err != nil {
			fatal(err)
		}
		// Model the in-memory chunked form alongside the file so the
		// audit line shows what the simulator would hold resident.
		mem := trace.NewChunkStatsSink(0)
		n := spec.Run(trace.Tee(w, mem), *scale)
		if err := w.Close(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d events to %s\n", n, *out)
		fmt.Printf("chunked: %s\n", mem.Stats())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runVerify audits one spill file or every *.btr in a directory,
// printing one PASS/FAIL line per file and exiting 1 on any failure.
// Quarantined and in-progress temp files never match (their names do
// not end in .btr), so a cache dir audits cleanly mid-traffic.
func runVerify(path string) {
	st, err := os.Stat(path)
	if err != nil {
		fatal(err)
	}
	files := []string{path}
	if st.IsDir() {
		ents, err := os.ReadDir(path)
		if err != nil {
			fatal(err)
		}
		files = files[:0]
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".btr") {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		sort.Strings(files)
		if len(files) == 0 {
			fmt.Printf("verify: no spill files under %s\n", path)
			return
		}
	}
	failed := 0
	for _, fp := range files {
		rep := trace.VerifySpill(fp)
		if rep.OK() {
			fmt.Printf("PASS %s format=BTR%d chunks=%d events=%d\n", fp, rep.Format, rep.Chunks, rep.Events)
		} else {
			failed++
			fmt.Printf("FAIL %s: %v\n", fp, rep.Err)
		}
	}
	fmt.Printf("verify: %d/%d passed\n", len(files)-failed, len(files))
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "brtrace:", err)
	os.Exit(1)
}
