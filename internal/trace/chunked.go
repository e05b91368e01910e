package trace

// In-memory recorded traces for the record-once/replay-many pipeline.
//
// A ChunkedTrace stores a branch stream as BTR2 chunk frames held in
// memory: each chunk is exactly the frame a spill file would carry (the
// groups of a direction mask byte then zigzag-varint PC deltas, the
// chaining PC and the CRC32C; see codec.go), so the common event costs
// ~1.2 bytes. Recording a workload once and replaying its frames is how
// the simulator drives many predictor passes without re-running the
// generator per pass, and writing the recording to disk copies the
// frames verbatim.

// DefaultChunkEvents is the chunk granularity used when a recorder is
// built with chunkEvents <= 0: big enough to amortise per-chunk overhead,
// small enough that per-reader decode buffers stay cache-friendly.
const DefaultChunkEvents = 1 << 14

// ChunkedTrace is a sealed in-memory trace. Build one with a
// ChunkRecorder; read it through NewResidentHandle, or event at a time
// with Source. A ChunkedTrace is immutable after sealing, so any number
// of readers may decode it concurrently.
type ChunkedTrace struct {
	frames      []frame
	events      int64
	chunkEvents int
}

// Events returns the number of recorded events.
func (t *ChunkedTrace) Events() int64 { return t.events }

// Chunks returns the number of chunks.
func (t *ChunkedTrace) Chunks() int { return len(t.frames) }

// SizeBytes returns the bytes of the frames' encoded payloads.
func (t *ChunkedTrace) SizeBytes() int64 { return payloadBytes(t.frames) }

// Source returns an event-at-a-time view of the trace.
func (t *ChunkedTrace) Source() Source { return NewResidentHandle(t).Source() }

// ChunkRecorder is a Sink that records a stream into a ChunkedTrace.
// It is single-writer; call Trace exactly once after the stream ends.
type ChunkRecorder struct {
	enc    frameEncoder
	tr     ChunkedTrace
	sealed bool
}

var _ Sink = (*ChunkRecorder)(nil)

// NewChunkRecorder returns a recorder cutting chunks every chunkEvents
// events (<= 0 means DefaultChunkEvents).
func NewChunkRecorder(chunkEvents int) *ChunkRecorder {
	r := &ChunkRecorder{enc: newFrameEncoder(chunkEvents)}
	r.tr.chunkEvents = r.enc.chunkEvents
	return r
}

// Branch records one event.
func (r *ChunkRecorder) Branch(pc uint64, taken bool) {
	if r.sealed {
		panic("trace: recording into a sealed ChunkRecorder")
	}
	if r.enc.add(pc, taken) {
		r.tr.frames = append(r.tr.frames, r.enc.seal())
	}
}

// Trace seals the recorder (closing any partial final chunk) and
// returns the recorded trace. Further Branch calls panic.
func (r *ChunkRecorder) Trace() *ChunkedTrace {
	if !r.sealed {
		if r.enc.cur.n > 0 {
			r.tr.frames = append(r.tr.frames, r.enc.seal())
		}
		r.tr.events = r.enc.events
		r.sealed = true
	}
	return &r.tr
}
