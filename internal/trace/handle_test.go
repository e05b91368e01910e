package trace

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// syntheticEvents generates the same deterministic stream as
// recordSynthetic, as an event slice.
func syntheticEvents(n int, seed uint64) []Event {
	out := make([]Event, 0, n)
	r := seed | 1
	for i := 0; i < n; i++ {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		out = append(out, Event{PC: 0x400000 + (r%512)*4, Taken: r&2 != 0})
	}
	return out
}

func replayHandle(h *Handle) []Event {
	var rec Recorder
	h.Replay(&rec)
	return rec.Events
}

// wantChunk is chunk k of a recording of events at chunkEvents events
// per chunk, laid out as a decode returns it: the oracle every decode
// is checked against.
func wantChunk(events []Event, chunkEvents, k int) DecodedChunk {
	evs := events[k*chunkEvents : min(len(events), (k+1)*chunkEvents)]
	d := DecodedChunk{PCs: make([]uint64, len(evs)), Dirs: make([]uint64, (len(evs)+63)/64), N: len(evs), Base: int64(k * chunkEvents)}
	for i, e := range evs {
		d.PCs[i] = e.PC
		if e.Taken {
			d.Dirs[i>>6] |= 1 << (i & 63)
		}
	}
	return d
}

// TestStreamRecorderRoundTrip pins the out-of-core recording path: a
// stream recorded straight to a spill file replays bit-identically,
// pages chunks in random order correctly, and bounds its resident
// prefix — across chunk sizes that do and do not align with the
// format's 8-event groups (frames may end on a short group).
func TestStreamRecorderRoundTrip(t *testing.T) {
	const n = 5000
	events := syntheticEvents(n, 42)
	for _, chunkEvents := range []int{7, 100, 1024} {
		for _, budget := range []int64{0, 1500, 1 << 30} {
			sr, err := NewStreamRecorder("", chunkEvents, budget)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range events {
				sr.Branch(ev.PC, ev.Taken)
			}
			h, err := sr.Seal()
			if err != nil {
				t.Fatalf("chunk=%d budget=%d: %v", chunkEvents, budget, err)
			}
			if h.Events() != n {
				t.Fatalf("chunk=%d: events %d != %d", chunkEvents, h.Events(), n)
			}
			wantChunks := (n + chunkEvents - 1) / chunkEvents
			if h.Chunks() != wantChunks {
				t.Fatalf("chunk=%d: chunks %d != %d", chunkEvents, h.Chunks(), wantChunks)
			}
			if got := replayHandle(h); !reflect.DeepEqual(got, events) {
				t.Fatalf("chunk=%d budget=%d: streamed replay diverged", chunkEvents, budget)
			}
			if budget == 1500 && h.ResidentPeak() >= h.EncodedBytes() {
				t.Fatalf("chunk=%d: bounded recording kept everything resident (peak %d, encoded %d)",
					chunkEvents, h.ResidentPeak(), h.EncodedBytes())
			}
			if budget == 0 && h.PageIns() == 0 {
				t.Fatalf("chunk=%d: zero-budget replay should have paged from disk", chunkEvents)
			}

			// Random-order page-ins must match the event slice.
			for _, k := range []int{wantChunks - 1, 0, wantChunks / 2, 1} {
				want := wantChunk(events, chunkEvents, k)
				got, err := h.DecodeChunk(k)
				if err != nil {
					t.Fatalf("chunk=%d budget=%d: DecodeChunk(%d): %v", chunkEvents, budget, k, err)
				}
				if got.N != want.N || got.Base != want.Base ||
					!reflect.DeepEqual(got.PCs, want.PCs) || !reflect.DeepEqual(got.Dirs, want.Dirs) {
					t.Fatalf("chunk=%d budget=%d: DecodeChunk(%d) diverged", chunkEvents, budget, k)
				}
			}
		}
	}
}

// TestStreamRecorderNamedPath pins the durable mode: the recording
// lands at the requested path as a valid BTR2 file a fresh handle can
// open, at its declared granularity or at whatever the header says.
func TestStreamRecorderNamedPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "rec.btr")
	events := syntheticEvents(3000, 7)
	sr, err := NewStreamRecorder(path, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		sr.Branch(ev.PC, ev.Taken)
	}
	h, err := sr.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if h.SpillPath() != path {
		t.Fatalf("SpillPath %q != %q", h.SpillPath(), path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("sealed file missing: %v", err)
	}
	reopened, err := OpenSpillHandle(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := replayHandle(reopened); !reflect.DeepEqual(got, events) {
		t.Fatal("reopened spill replay diverged")
	}
	declared, err := OpenSpillHandle(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if declared.ChunkEvents() != 100 || declared.Chunks() != reopened.Chunks() {
		t.Fatalf("granularity 0 opened at %d events/chunk, %d chunks; want the header's 100, %d",
			declared.ChunkEvents(), declared.Chunks(), reopened.Chunks())
	}
	if got := replayHandle(declared); !reflect.DeepEqual(got, events) {
		t.Fatal("replay at the declared granularity diverged")
	}
	if _, err := OpenSpillHandle(path, 64); err == nil || errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("a granularity mismatch must be a plain error, got %v", err)
	}
}

// TestStreamRecorderEmpty pins the zero-event edge: sealing an empty
// stream yields a valid empty handle.
func TestStreamRecorderEmpty(t *testing.T) {
	sr, err := NewStreamRecorder("", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sr.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if h.Events() != 0 || h.Chunks() != 0 {
		t.Fatalf("empty handle: events=%d chunks=%d", h.Events(), h.Chunks())
	}
	if got := replayHandle(h); len(got) != 0 {
		t.Fatalf("empty replay yielded %d events", len(got))
	}
}

// TestHandleReleaseAndRepage pins eviction-while-reading: dropping a
// spill-backed handle's resident frames mid-replay must not change
// the stream, and later reads page back in.
func TestHandleReleaseAndRepage(t *testing.T) {
	events := syntheticEvents(4000, 99)
	sr, err := NewStreamRecorder("", 128, 1<<30) // everything resident, spill on disk
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		sr.Branch(ev.PC, ev.Taken)
	}
	h, err := sr.Seal()
	if err != nil {
		t.Fatal(err)
	}
	r := h.NewReader()
	var got []Event
	read := func(d DecodedChunk) {
		for i := 0; i < d.N; i++ {
			got = append(got, Event{PC: d.PCs[i], Taken: d.Dirs[i>>6]>>(i&63)&1 == 1})
		}
	}
	d, ok, err := r.Next() // a resident chunk in hand
	if !ok || err != nil {
		t.Fatalf("first chunk: ok=%v err=%v", ok, err)
	}
	read(d)
	if freed := h.Release(); freed == 0 {
		t.Fatal("release of a resident spill-backed handle must free bytes")
	}
	if h.ResidentBytes() != 0 {
		t.Fatal("frames still resident after Release")
	}
	// The in-flight reader pages the rest in from disk.
	for {
		d, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		read(d)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatal("replay across a Release diverged")
	}
	if h.PageIns() != int64(h.Chunks()-1) {
		t.Fatalf("paged in %d chunks after the release, want %d", h.PageIns(), h.Chunks()-1)
	}
}

// TestResidentHandle pins the zero-cost wrap of an in-memory trace.
func TestResidentHandle(t *testing.T) {
	tr := recordSynthetic(2500, 100, 3)
	h := NewResidentHandle(tr)
	if h.Spilled() {
		t.Fatal("resident handle reports spilled")
	}
	if h.Release() != 0 {
		t.Fatal("memory-only handle must not release its only copy")
	}
	if !reflect.DeepEqual(replayHandle(h), syntheticEvents(2500, 3)) {
		t.Fatal("handle replay diverged from the recorded events")
	}
	if h.PageIns() != 0 {
		t.Fatal("a resident handle paged in")
	}
	if h.EncodedBytes() != tr.SizeBytes() {
		t.Fatalf("EncodedBytes %d != SizeBytes %d", h.EncodedBytes(), tr.SizeBytes())
	}
}

// TestChunkReaderReusesBuffers: a reader over a zero-resident handle
// allocates its column buffers at the first page-in and reuses them for
// every later chunk, so a full replay costs the same handful of
// allocations (the reader and its two buffers) at 2 chunks as at 26.
func TestChunkReaderReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops page buffers at random")
	}
	replayAllocs := func(chunks int) float64 {
		const chunkEvents = 1000
		sr, err := NewStreamRecorder("", chunkEvents, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range syntheticEvents(chunks*chunkEvents-chunkEvents/2, 3) {
			sr.Branch(ev.PC, ev.Taken)
		}
		h, err := sr.Seal()
		if err != nil {
			t.Fatal(err)
		}
		defer h.f.Close()
		if h.Chunks() != chunks {
			t.Fatalf("recorded %d chunks, want %d", h.Chunks(), chunks)
		}
		return testing.AllocsPerRun(5, func() {
			r := h.NewReader()
			for {
				if _, ok, _ := r.Next(); !ok {
					break
				}
			}
		})
	}
	few, many := replayAllocs(2), replayAllocs(26)
	if many != few || many > 3 {
		t.Fatalf("full replay allocated %v times over 2 chunks and %v over 26; want at most 3, independent of the chunk count", few, many)
	}
}
