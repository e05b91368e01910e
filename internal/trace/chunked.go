package trace

import (
	"encoding/binary"
	"fmt"
)

// In-memory recorded traces for the record-once/replay-many pipeline.
//
// A ChunkedTrace stores a branch stream as column-oriented chunks: each
// chunk holds a direction bitmap (one bit per event) and a byte column of
// zigzag-varint PC deltas — the same delta idiom as the BTR2 file format,
// so the common event costs ~1.1 bytes plus a direction bit. Recording a
// workload once and replaying the chunks is how the simulator drives many
// predictor passes without re-running the generator per pass, and the
// compact columns keep whole Table 1 inputs resident without trace files.

// DefaultChunkEvents is the chunk granularity used when a recorder is
// built with chunkEvents <= 0: big enough to amortise per-chunk overhead,
// small enough that per-replayer decode buffers stay cache-friendly.
const DefaultChunkEvents = 1 << 14

// chunk is one column-oriented run of events.
type chunk struct {
	// startPC is the PC preceding the chunk's first event; deltas chain
	// from it exactly as BTR2 deltas chain within a frame.
	startPC uint64
	// deltas holds n zigzag-uvarint PC deltas, back to back.
	deltas []byte
	// dirs is the direction bitmap: event i's outcome is bit i&63 of
	// word i>>6.
	dirs []uint64
	// n counts events in this chunk.
	n int
}

// ChunkedTrace is a sealed in-memory trace. Build one with a ChunkRecorder;
// replay it with NewReplayer (chunk-at-a-time columns, the fast path) or
// Source (event-at-a-time, the generic path). A ChunkedTrace is immutable
// after sealing, so any number of replayers may read it concurrently.
type ChunkedTrace struct {
	chunks      []chunk
	events      int64
	chunkEvents int
}

// Events returns the number of recorded events.
func (t *ChunkedTrace) Events() int64 { return t.events }

// Chunks returns the number of chunks.
func (t *ChunkedTrace) Chunks() int { return len(t.chunks) }

// SizeBytes returns the approximate heap footprint of the stored columns.
func (t *ChunkedTrace) SizeBytes() int64 {
	var n int64
	for i := range t.chunks {
		n += int64(len(t.chunks[i].deltas)) + int64(len(t.chunks[i].dirs))*8
	}
	return n
}

// ChunkStats summarises a ChunkedTrace's in-memory encoding, for trace
// audits (brtrace) and cache accounting.
type ChunkStats struct {
	Chunks     int   // sealed chunks
	Events     int64 // recorded events
	DeltaBytes int64 // zigzag-varint PC delta column bytes
	DirBytes   int64 // direction bitmap bytes
}

// EncodedBytes is the total column footprint.
func (s ChunkStats) EncodedBytes() int64 { return s.DeltaBytes + s.DirBytes }

// BytesPerEvent is the mean encoded cost of one event (0 when empty).
func (s ChunkStats) BytesPerEvent() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.EncodedBytes()) / float64(s.Events)
}

// String renders a one-line summary.
func (s ChunkStats) String() string {
	return fmt.Sprintf("chunks=%d events=%d encoded_bytes=%d (deltas=%d dirs=%d) bytes/event=%.2f",
		s.Chunks, s.Events, s.EncodedBytes(), s.DeltaBytes, s.DirBytes, s.BytesPerEvent())
}

// MemStats reports the trace's in-memory encoding statistics.
func (t *ChunkedTrace) MemStats() ChunkStats {
	s := ChunkStats{Chunks: len(t.chunks), Events: t.events}
	for i := range t.chunks {
		s.DeltaBytes += int64(len(t.chunks[i].deltas))
		s.DirBytes += int64(len(t.chunks[i].dirs)) * 8
	}
	return s
}

// ChunkStatsSink measures what a ChunkRecorder would hold resident for
// a stream — same chunking, same delta encoding — without retaining any
// columns, so arbitrarily large traces can be audited in O(1) memory.
// It implements Sink; read the result with Stats.
type ChunkStatsSink struct {
	chunkEvents int
	lastPC      uint64
	cur         int // events in the current (unfinished) chunk
	s           ChunkStats
}

// NewChunkStatsSink returns a sink modelling a recorder with the given
// chunk granularity (<= 0 means DefaultChunkEvents).
func NewChunkStatsSink(chunkEvents int) *ChunkStatsSink {
	if chunkEvents <= 0 {
		chunkEvents = DefaultChunkEvents
	}
	return &ChunkStatsSink{chunkEvents: chunkEvents}
}

// Branch accounts for one event.
func (s *ChunkStatsSink) Branch(pc uint64, taken bool) {
	if s.cur == 0 {
		// A recorder allocates the full direction bitmap when a chunk
		// opens, so a partial final chunk costs the same words.
		s.s.Chunks++
		s.s.DirBytes += int64((s.chunkEvents+63)/64) * 8
	}
	var scratch [binary.MaxVarintLen64]byte
	s.s.DeltaBytes += int64(binary.PutUvarint(scratch[:], zigzag(int64(pc-s.lastPC))))
	s.lastPC = pc
	s.s.Events++
	s.cur++
	if s.cur == s.chunkEvents {
		s.cur = 0
	}
}

// Stats returns the accumulated statistics.
func (s *ChunkStatsSink) Stats() ChunkStats { return s.s }

// ChunkRecorder is a Sink that records a stream into a ChunkedTrace.
// It is single-writer; call Trace exactly once after the stream ends.
type ChunkRecorder struct {
	tr     ChunkedTrace
	cur    chunk
	lastPC uint64
	sealed bool
}

var _ Sink = (*ChunkRecorder)(nil)

// NewChunkRecorder returns a recorder cutting chunks every chunkEvents
// events (<= 0 means DefaultChunkEvents).
func NewChunkRecorder(chunkEvents int) *ChunkRecorder {
	if chunkEvents <= 0 {
		chunkEvents = DefaultChunkEvents
	}
	return &ChunkRecorder{tr: ChunkedTrace{chunkEvents: chunkEvents}}
}

// Branch records one event.
func (r *ChunkRecorder) Branch(pc uint64, taken bool) {
	if r.sealed {
		panic("trace: recording into a sealed ChunkRecorder")
	}
	if r.cur.dirs == nil {
		r.cur.startPC = r.lastPC
		r.cur.dirs = make([]uint64, (r.tr.chunkEvents+63)/64)
		if r.cur.deltas == nil {
			// Reserve for the common ~1.1 byte/event case; rare
			// delta-heavy chunks just grow.
			r.cur.deltas = make([]byte, 0, r.tr.chunkEvents+r.tr.chunkEvents/4)
		}
	}
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], zigzag(int64(pc-r.lastPC)))
	r.cur.deltas = append(r.cur.deltas, scratch[:n]...)
	if taken {
		r.cur.dirs[r.cur.n>>6] |= 1 << (uint(r.cur.n) & 63)
	}
	r.cur.n++
	r.lastPC = pc
	if r.cur.n == r.tr.chunkEvents {
		r.flush()
	}
}

func (r *ChunkRecorder) flush() {
	if r.cur.n == 0 {
		return
	}
	r.tr.chunks = append(r.tr.chunks, r.cur)
	r.tr.events += int64(r.cur.n)
	r.cur = chunk{}
}

// Trace seals the recorder (flushing any partial final chunk) and returns
// the recorded trace. Further Branch calls panic.
func (r *ChunkRecorder) Trace() *ChunkedTrace {
	if !r.sealed {
		r.flush()
		r.sealed = true
	}
	return &r.tr
}

// Replayer decodes a ChunkedTrace chunk by chunk into reusable column
// buffers. Each replayer owns its buffers, so independent goroutines can
// replay the same trace concurrently with one decode each.
type Replayer struct {
	t   *ChunkedTrace
	ci  int
	pcs []uint64
}

// NewReplayer returns a replayer positioned at the first chunk.
func (t *ChunkedTrace) NewReplayer() *Replayer {
	return &Replayer{t: t, pcs: make([]uint64, t.chunkEvents)}
}

// NextChunk decodes the next chunk and returns its PC column, direction
// bitmap (event i's outcome is bit i&63 of word i>>6), and event count.
// ok is false once the trace is exhausted. The returned pcs slice is
// owned by the replayer and overwritten by the next call; dirs aliases
// the trace's immutable storage.
func (r *Replayer) NextChunk() (pcs []uint64, dirs []uint64, n int, ok bool) {
	if r.ci >= len(r.t.chunks) {
		return nil, nil, 0, false
	}
	c := &r.t.chunks[r.ci]
	r.ci++
	c.decodeInto(r.pcs)
	return r.pcs[:c.n], c.bitmap(), c.n, true
}

// bitmap returns the chunk's direction bitmap trimmed to its events'
// (n+63)/64 words, the length every decode path hands out.
func (c *chunk) bitmap() []uint64 { return c.dirs[:(c.n+63)/64] }

// decodeInto expands the chunk's delta column into pcs, which must hold
// at least c.n entries. Chunks are immutable, so concurrent decodes into
// distinct buffers are safe.
func (c *chunk) decodeInto(pcs []uint64) {
	pc := c.startPC
	off := 0
	for i := 0; i < c.n; i++ {
		word, w := binary.Uvarint(c.deltas[off:])
		if w <= 0 {
			panic("trace: corrupt chunk delta column")
		}
		off += w
		pc += uint64(unzigzag(word))
		pcs[i] = pc
	}
}

// Reset rewinds the replayer to the first chunk.
func (r *Replayer) Reset() { r.ci = 0 }

// Replay drives every recorded event through sink, in order.
func (t *ChunkedTrace) Replay(sink Sink) {
	r := t.NewReplayer()
	for {
		pcs, dirs, n, ok := r.NextChunk()
		if !ok {
			return
		}
		for i := 0; i < n; i++ {
			sink.Branch(pcs[i], dirs[i>>6]&(1<<(uint(i)&63)) != 0)
		}
	}
}

// Source returns an event-at-a-time view of the trace.
func (t *ChunkedTrace) Source() Source {
	rep := t.NewReplayer()
	return &chunkSource{next: func() ([]uint64, []uint64, int, bool, error) {
		pcs, dirs, n, ok := rep.NextChunk()
		return pcs, dirs, n, ok, nil
	}}
}

// chunkSource is an event-at-a-time view over a chunk stream.
type chunkSource struct {
	next func() (pcs []uint64, dirs []uint64, n int, ok bool, err error)
	pcs  []uint64
	dirs []uint64
	n    int
	i    int
}

func (s *chunkSource) Next() (Event, bool, error) {
	for s.i >= s.n {
		pcs, dirs, n, ok, err := s.next()
		if !ok {
			return Event{}, false, err
		}
		s.pcs, s.dirs, s.n, s.i = pcs, dirs, n, 0
	}
	i := s.i
	s.i++
	return Event{PC: s.pcs[i], Taken: s.dirs[i>>6]&(1<<(uint(i)&63)) != 0}, true, nil
}
