package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The tests in this file pin the single chunk encoding: a resident chunk
// is the BTR2 frame a spill file carries, so the cache's write-through
// of a ChunkRecorder recording is byte for byte the StreamRecorder's
// file, and every chunk decodes to the recorded events however the
// handle holds it.

// formatChunkSizes are the granularities the format tests cut at: below
// one 8-event group, group-aligned, not group-aligned, and the default.
var formatChunkSizes = []int{7, 64, 1000, DefaultChunkEvents}

// formatStreams are the streams the format tests record at chunk size
// c: empty, one event, an exact multiple of c, and a partial final
// chunk.
func formatStreams(c int) map[string][]Event {
	return map[string][]Event{
		"empty":    nil,
		"one":      syntheticEvents(1, 3),
		"multiple": syntheticEvents(3*c, 5),
		"partial":  syntheticEvents(2*c+c/2+1, 7),
	}
}

// streamRecord records events through a StreamRecorder at path ("" for
// an anonymous file) and seals it; the file is closed when t ends.
func streamRecord(t *testing.T, path string, events []Event, chunkEvents int, budget int64) *Handle {
	t.Helper()
	sr, err := NewStreamRecorder(path, chunkEvents, budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		sr.Branch(e.PC, e.Taken)
	}
	h, err := sr.Seal()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.f.Close() })
	return h
}

// TestOneEncodingDecodesEverywhere: every chunk of a resident, a
// prefix-resident and a spilled handle decodes to the event slice, at
// every chunk size and over every stream shape.
func TestOneEncodingDecodesEverywhere(t *testing.T) {
	for _, c := range formatChunkSizes {
		for name, events := range formatStreams(c) {
			handles := map[string]*Handle{
				"resident": NewResidentHandle(recordChunked(events, c)),
				// Retention stops at the first frame past the budget, so
				// a 1-byte budget keeps exactly the first frame.
				"prefix":  streamRecord(t, "", events, c, 1),
				"spilled": streamRecord(t, "", events, c, 0),
			}
			chunks := (len(events) + c - 1) / c
			for hname, h := range handles {
				if h.Events() != int64(len(events)) || h.Chunks() != chunks {
					t.Fatalf("chunk=%d %s %s: %d events in %d chunks, want %d in %d",
						c, name, hname, h.Events(), h.Chunks(), len(events), chunks)
				}
				for k := range chunks {
					got, err := h.DecodeChunk(k)
					if err != nil {
						t.Fatalf("chunk=%d %s %s: DecodeChunk(%d): %v", c, name, hname, k, err)
					}
					if want := wantChunk(events, c, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("chunk=%d %s %s: chunk %d decodes to %+v, want %+v", c, name, hname, k, got, want)
					}
				}
			}
			if p := handles["prefix"]; chunks > 1 && (p.ResidentBytes() == 0 || p.ResidentBytes() == p.EncodedBytes()) {
				t.Fatalf("chunk=%d %s: prefix handle holds %d of %d bytes resident, want the first frame only",
					c, name, p.ResidentBytes(), p.EncodedBytes())
			}
			if r := handles["resident"]; r.EncodedBytes() != handles["spilled"].EncodedBytes() {
				t.Fatalf("chunk=%d %s: resident frames hold %d bytes, the spill file's %d",
					c, name, r.EncodedBytes(), handles["spilled"].EncodedBytes())
			}
		}
	}
}

// TestWriteThroughMatchesStreamFile: the cache's write-through of a
// ChunkRecorder recording, its frames written verbatim, is byte for
// byte the file a StreamRecorder writes for the same stream, whether it
// keeps nothing resident or everything.
func TestWriteThroughMatchesStreamFile(t *testing.T) {
	for _, c := range formatChunkSizes {
		for name, events := range formatStreams(c) {
			dir := t.TempDir()
			cache := NewCache(0, filepath.Join(dir, "cache"), 0)
			key := CacheKey{Name: name, Scale: 1, ChunkEvents: c}
			if err := cache.Put(key, NewResidentHandle(recordChunked(events, c))); err != nil {
				t.Fatal(err)
			}
			written, err := os.ReadFile(cache.SpillPathFor(key))
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int64{0, 1 << 30} {
				path := filepath.Join(dir, "stream.btr")
				streamRecord(t, path, events, c, budget)
				streamed, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(written, streamed) {
					t.Fatalf("chunk=%d %s budget=%d: write-through (%d bytes) differs from the streamed file (%d bytes)",
						c, name, budget, len(written), len(streamed))
				}
			}
		}
	}
}

// TestResidentFrameCorruptionIsAnError: a resident frame is checksummed
// like a paged-in one, so one flipped payload byte makes its decode
// return an error naming the chunk and unwrapping to ErrCorruptSpill,
// and a replay surfaces it, while the other chunks still decode.
func TestResidentFrameCorruptionIsAnError(t *testing.T) {
	tr := recordChunked(syntheticEvents(300, 9), 100)
	tr.frames[1].payload[5] ^= 0x10
	h := NewResidentHandle(tr)
	_, err := h.DecodeChunkInto(1, nil, nil)
	var ce *CorruptError
	if !errors.Is(err, ErrCorruptSpill) || !errors.As(err, &ce) || ce.Chunk != 1 {
		t.Fatalf("DecodeChunkInto(1) on a damaged resident frame: err = %v, want a chunk 1 ErrCorruptSpill", err)
	}
	for _, k := range []int{0, 2} {
		if _, err := h.DecodeChunkInto(k, nil, nil); err != nil {
			t.Fatalf("undamaged chunk %d: %v", k, err)
		}
	}
	if _, err := Copy(SinkFunc(func(uint64, bool) {}), h.Source()); !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("Source over the damaged frame: err = %v, want ErrCorruptSpill", err)
	}
}
