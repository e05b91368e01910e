// Command brtrace generates, inspects and converts branch traces.
//
// Usage:
//
//	brtrace -list                                    # list workloads
//	brtrace -bench gcc -input expr.i -o expr.btr     # record a trace
//	brtrace -bench gcc -input expr.i -o expr.btr \
//	        -membudget 1048576                       # keep a resident prefix
//	brtrace -info expr.btr                           # summarise a trace
//	brtrace -text expr.btr                           # dump as text
//	brtrace -verify cachedir                         # audit spill files
//
// Recording streams events straight into a BTR2 file through the
// out-of-core recorder, keeping about -membudget bytes of leading chunk
// frames resident, then audit-replays the file and reports the memory
// shape: peak resident chunk bytes, and the page-ins of the replay.
// -info reports the file's size alongside its chunk count and encoded
// frame bytes, which are also what the recording costs held resident.
//
// -verify audits spill files — one file, or every *.btr under a
// directory (a trace-cache dir): header, frame structure, event counts,
// and every chunk's checksum and decodability. One PASS/FAIL line per
// file; the exit status is nonzero if any file fails. Quarantined and
// temporary files (*.quarantined, *.tmp*) are skipped.
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
	out := flag.String("o", "", "record the workload to this BTR2 trace file, then audit-replay it")
	memBudget := flag.Int64("membudget", 0, "keep about this many bytes of the recording's leading chunk frames resident while recording (0 = none; the audit replay pages everything from the file)")
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
		h := openTrace(*info)
		// One pass summarises the stream, one chunk resident at a time,
		// so arbitrarily large traces audit in O(1) memory. The
		// simulator holds the same frames in memory, so the handle's
		// encoded bytes are what retaining the recording would cost.
		sink := trace.NewStatsSink()
		if _, err := trace.Copy(sink, h.Source()); err != nil {
			fatal(err)
		}
		fmt.Println(sink.Stats())
		if fi, err := os.Stat(*info); err == nil {
			fmt.Printf("btr2: file_bytes=%d\n", fi.Size())
		}
		fmt.Printf("chunked: chunks=%d encoded_bytes=%d\n", h.Chunks(), h.EncodedBytes())
	case *text != "":
		if _, err := trace.WriteText(os.Stdout, openTrace(*text).Source()); err != nil {
			fatal(err)
		}
	case *bench != "" && *input != "" && *out != "":
		// Events go straight to the BTR2 file with a bounded resident
		// prefix — the memory shape a paper-scale run has — then an
		// audit replay pages every other chunk back in, one chunk's
		// columns at a time, and reports the memory-shape counters.
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
		fmt.Printf("wrote %d events to %s\n", n, *out)
		fmt.Printf("stream: chunks=%d encoded_bytes=%d resident_peak=%d\n",
			h.Chunks(), h.EncodedBytes(), h.ResidentPeak())
		events, err := trace.Copy(trace.SinkFunc(func(uint64, bool) {}), h.Source())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replay: events=%d page_ins=%d\n", events, h.PageIns())
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
			fmt.Printf("PASS %s format=BTR2 chunks=%d events=%d\n", fp, rep.Chunks, rep.Events)
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

// openTrace opens a BTR2 trace file at whatever chunk granularity it
// was written with.
func openTrace(path string) *trace.Handle {
	h, err := trace.OpenSpillHandle(path, 0)
	if err != nil {
		fatal(err)
	}
	return h
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "brtrace:", err)
	os.Exit(1)
}
