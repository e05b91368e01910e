package trace

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Handle is the out-of-core view of one recording: the same chunked
// event stream a ChunkedTrace holds, but whose columns may live in
// memory, in a BTR2 spill file, or both. A fully resident handle wraps
// an existing trace with zero copying; a spill-backed handle pages
// chunks in on demand and can drop its resident columns (Release)
// without invalidating readers. Replay paths that used to require the
// whole recording in RAM — the simulator's bank sweep, ablation
// replays, CLI audits — read through a Handle instead, so peak memory
// is bounded by what the caller chooses to keep resident.
//
// A Handle is safe for concurrent use. Decoded chunks are immutable
// once returned; releasing residency mid-read only affects where later
// reads come from, never the bytes they see.

// ChunkReader is the sequential chunk-at-a-time replay protocol shared
// by the in-memory Replayer and the handle's paging reader. The
// returned pcs slice is owned by the reader and overwritten by the next
// call; dirs may alias immutable storage.
type ChunkReader interface {
	NextChunk() (pcs []uint64, dirs []uint64, n int, ok bool)
}

var _ ChunkReader = (*Replayer)(nil)

// DecodedChunk is one chunk's decoded columns: the PC column, the
// direction bitmap (event i's outcome is bit i&63 of word i>>6, in
// (N+63)/64 words), the event count, and the chunk's first event index
// in the stream.
type DecodedChunk struct {
	PCs  []uint64
	Dirs []uint64
	N    int
	Base int64
}

// SizeBytes is the decoded footprint charged against window budgets.
func (d *DecodedChunk) SizeBytes() int64 {
	return int64(len(d.PCs))*8 + int64(len(d.Dirs))*8
}

// chunkPos locates one chunk inside a spill file. Each chunk is a
// self-contained frame: off is the payload offset, plen its length and
// crc its CRC32C, verified on every page-in. startPC is the PC
// preceding the chunk's first event, from which its deltas chain.
type chunkPos struct {
	off     int64
	startPC uint64
	plen    int64
	crc     uint32
}

// Handle is one recording, resident and/or spill-backed.
type Handle struct {
	chunkEvents  int
	events       int64
	nchunks      int
	encoded      int64 // full column footprint if materialised
	residentPeak int64 // high-water mark of resident column bytes

	mu       sync.Mutex
	res      *ChunkedTrace // resident chunk prefix (possibly all chunks); nil = none
	path     string        // spill file, "" for anonymous temp or memory-only
	f        *os.File      // open spill file, lazily opened from path
	fileSize int64
	idx      []chunkPos // per-chunk file positions, lazily built
	sio      SpillIO    // injectable spill file ops; nil = direct

	pageIns     atomic.Int64
	readRetries atomic.Int64
}

// NewResidentHandle wraps an in-memory trace as a fully resident
// handle. No copying: the handle shares the trace's immutable columns.
func NewResidentHandle(tr *ChunkedTrace) *Handle {
	size := tr.SizeBytes()
	return &Handle{
		chunkEvents:  tr.chunkEvents,
		events:       tr.events,
		nchunks:      len(tr.chunks),
		encoded:      size,
		residentPeak: size,
		res:          tr,
	}
}

// OpenSpillHandle opens a BTR2 spill file as a handle with no resident
// columns: one sequential scan builds the chunk index (offsets only — no
// columns are retained), after which chunks page in on demand. The file
// must chunk every chunkEvents events; chunkEvents <= 0 accepts the
// granularity its header declares. A structurally damaged or truncated
// file fails here with an error unwrapping to ErrCorruptSpill.
func OpenSpillHandle(path string, chunkEvents int) (*Handle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	idx, events, deltaBytes, chunkEvents, err := scanSpill(io.NewSectionReader(f, 0, st.Size()), chunkEvents)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Handle{
		chunkEvents: chunkEvents,
		events:      events,
		nchunks:     len(idx),
		encoded:     deltaBytes + int64(len(idx))*int64((chunkEvents+63)/64)*8,
		path:        path,
		f:           f,
		fileSize:    st.Size(),
		idx:         idx,
	}, nil
}

// Events returns the number of recorded events.
func (h *Handle) Events() int64 { return h.events }

// Chunks returns the number of chunks.
func (h *Handle) Chunks() int { return h.nchunks }

// ChunkEvents returns the chunk granularity.
func (h *Handle) ChunkEvents() int { return h.chunkEvents }

// EncodedBytes returns the full column footprint the recording would
// occupy if materialised, resident or not.
func (h *Handle) EncodedBytes() int64 { return h.encoded }

// ResidentBytes returns the bytes of chunk columns currently in memory.
func (h *Handle) ResidentBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.res == nil {
		return 0
	}
	return h.res.SizeBytes()
}

// ResidentPeak returns the high-water mark of resident column bytes
// over the handle's lifetime (for streamed recordings, the bounded
// window; for resident ones, the whole trace).
func (h *Handle) ResidentPeak() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.residentPeak
}

// PageIns returns the cumulative count of chunks re-read from the spill
// file.
func (h *Handle) PageIns() int64 { return h.pageIns.Load() }

// ReadRetries returns the cumulative count of spill reads re-issued
// after a transient I/O error.
func (h *Handle) ReadRetries() int64 { return h.readRetries.Load() }

// SetSpillIO injects the I/O layer the handle's spill page-ins go
// through (nil restores direct file ops). For fault-injection tests.
func (h *Handle) SetSpillIO(sio SpillIO) {
	h.mu.Lock()
	h.sio = sio
	h.mu.Unlock()
}

// spillIO returns the handle's effective I/O layer.
func (h *Handle) spillIO() SpillIO {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sio == nil {
		return defaultSpillIO
	}
	return h.sio
}

// readFull reads len(p) bytes at off, retrying transient failures with
// bounded backoff. A short read with no error (or EOF) surfaces as
// io.ErrUnexpectedEOF — the file is shorter than the index says, which
// is truncation, not a glitch — and is not retried.
func (h *Handle) readFull(f *os.File, p []byte, off int64) error {
	sio := h.spillIO()
	for attempt := 0; ; attempt++ {
		n, err := sio.ReadAt(f, p, off)
		if err == nil && n == len(p) {
			return nil
		}
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if !transientIOError(err) || attempt >= len(spillRetryDelays) {
			return err
		}
		h.readRetries.Add(1)
		time.Sleep(spillRetryDelays[attempt])
	}
}

// Spilled reports whether the recording is backed by a spill file.
func (h *Handle) Spilled() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.f != nil || h.path != ""
}

// SpillPath returns the spill file's path ("" for memory-only handles
// and anonymous temp files).
func (h *Handle) SpillPath() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.path
}

// Release drops the resident columns of a spill-backed handle and
// returns the bytes freed; later reads page back in from disk. A
// memory-only handle keeps its columns (dropping them would lose the
// recording) and returns 0.
func (h *Handle) Release() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.f == nil && h.path == "" {
		return 0
	}
	if h.res == nil {
		return 0
	}
	freed := h.res.SizeBytes()
	h.res = nil
	return freed
}

// attachSpill records that the recording now also lives at path (a
// write-through by the cache). The file is opened lazily; the chunk
// index is built on the first page-in.
func (h *Handle) attachSpill(path string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.path == "" && h.f == nil {
		h.path = path
	}
}

// adoptResident installs tr as the handle's resident columns if it
// currently holds fewer (a re-Put after eviction re-adopts the offered
// trace; recordings are deterministic, so the two are identical).
func (h *Handle) adoptResident(tr *ChunkedTrace) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.res == nil || len(h.res.chunks) < h.nchunks {
		h.res = tr
		if s := tr.SizeBytes(); s > h.residentPeak {
			h.residentPeak = s
		}
	}
}

// fileLocked returns the open spill file, opening h.path on first use.
// Callers must hold h.mu.
func (h *Handle) fileLocked() (*os.File, error) {
	if h.f != nil {
		return h.f, nil
	}
	if h.path == "" {
		return nil, fmt.Errorf("trace: handle has no spill backing")
	}
	f, err := os.Open(h.path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	h.f = f
	h.fileSize = st.Size()
	return f, nil
}

// indexLocked returns the chunk index, scanning the spill file once to
// build it if needed (write-through handles defer the scan until the
// first page-in). Callers must hold h.mu.
func (h *Handle) indexLocked() ([]chunkPos, error) {
	if h.idx != nil {
		return h.idx, nil
	}
	f, err := h.fileLocked()
	if err != nil {
		return nil, err
	}
	idx, events, _, _, err := scanSpill(io.NewSectionReader(f, 0, h.fileSize), h.chunkEvents)
	if err != nil {
		return nil, err
	}
	if events != h.events {
		return nil, &CorruptError{Path: h.path, Chunk: -1,
			Reason: fmt.Sprintf("spill file holds %d events, handle expects %d", events, h.events)}
	}
	h.idx = idx
	return idx, nil
}

// chunkLen returns chunk k's event count.
func (h *Handle) chunkLen(k int) int {
	if k == h.nchunks-1 {
		return int(h.events - int64(k)*int64(h.chunkEvents))
	}
	return h.chunkEvents
}

// DecodeChunk decodes chunk k into fresh columns, from the resident
// trace when k is resident, otherwise paging from the spill file.
func (h *Handle) DecodeChunk(k int) (DecodedChunk, error) {
	return h.DecodeChunkInto(k, nil, nil)
}

// DecodeChunkInto is DecodeChunk reusing the caller's buffers when
// they are large enough (pass nil to allocate). The returned Dirs may
// alias the resident trace's immutable bitmap.
func (h *Handle) DecodeChunkInto(k int, pcs, dirs []uint64) (DecodedChunk, error) {
	if k < 0 || k >= h.nchunks {
		return DecodedChunk{}, fmt.Errorf("trace: chunk %d out of range [0,%d)", k, h.nchunks)
	}
	base := int64(k) * int64(h.chunkEvents)
	h.mu.Lock()
	if h.res != nil && k < len(h.res.chunks) {
		c := &h.res.chunks[k]
		h.mu.Unlock()
		if cap(pcs) < c.n {
			pcs = make([]uint64, c.n)
		}
		c.decodeInto(pcs[:c.n])
		return DecodedChunk{PCs: pcs[:c.n], Dirs: c.bitmap(), N: c.n, Base: base}, nil
	}
	f, err := h.fileLocked()
	if err != nil {
		h.mu.Unlock()
		return DecodedChunk{}, err
	}
	idx, err := h.indexLocked()
	h.mu.Unlock()
	if err != nil {
		return DecodedChunk{}, err
	}

	d, err := h.readChunkAt(f, idx[k], k, h.chunkLen(k), pcs, dirs)
	if err != nil {
		return DecodedChunk{}, err
	}
	d.Base = base
	h.pageIns.Add(1)
	return d, nil
}

// Materialise returns the recording as a fully resident ChunkedTrace,
// reading the spill file if the columns are not already in memory. The
// materialised columns become the handle's resident set.
func (h *Handle) Materialise() (*ChunkedTrace, error) {
	tr, _, err := h.materialise()
	return tr, err
}

// materialise additionally reports whether the spill file was read.
// Chunks page in through DecodeChunkInto, so every check a page-in
// makes (checksum, payload structure, event count) runs here too.
func (h *Handle) materialise() (*ChunkedTrace, bool, error) {
	h.mu.Lock()
	res := h.res
	h.mu.Unlock()
	if res != nil && len(res.chunks) == h.nchunks {
		return res, false, nil
	}
	rec := NewChunkRecorder(h.chunkEvents)
	var pcs []uint64
	dirs := make([]uint64, (h.chunkEvents+63)/64) // never the resident bitmap a decode may return
	for k := 0; k < h.nchunks; k++ {
		d, err := h.DecodeChunkInto(k, pcs, dirs)
		if err != nil {
			return nil, true, err
		}
		for i := 0; i < d.N; i++ {
			rec.Branch(d.PCs[i], d.Dirs[i>>6]&(1<<(uint(i)&63)) != 0)
		}
		pcs = d.PCs
	}
	h.adoptResident(rec.Trace())
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res, true, nil
}

// ChunkReader returns a sequential reader over the whole recording:
// the resident prefix decodes from memory, the remainder pages in from
// the spill file. Each reader owns its buffers, so any number may run
// concurrently. Paging errors panic with context (replay interfaces
// have no error path); the simulator converts such panics into
// per-input errors.
func (h *Handle) ChunkReader() ChunkReader { return h.newReader() }

func (h *Handle) newReader() *handleReader {
	h.mu.Lock()
	res := h.res
	h.mu.Unlock()
	r := &handleReader{h: h}
	if res != nil {
		r.rep = res.NewReplayer()
		r.next = len(res.chunks)
	}
	return r
}

// handleReader pages through the handle: the resident prefix snapshot
// via a Replayer, then chunk-at-a-time from the spill file.
type handleReader struct {
	h    *Handle
	rep  *Replayer // over the resident prefix snapshot; nil when exhausted
	next int       // next chunk index once rep is exhausted
	pcs  []uint64
	// dirs is the reader's own direction bitmap, one chunk's worth of
	// words, allocated at the first page-in. It is never taken from a
	// decoded chunk, whose Dirs may alias the resident trace.
	dirs []uint64
}

func (r *handleReader) NextChunk() (pcs []uint64, dirs []uint64, n int, ok bool) {
	pcs, dirs, n, ok, err := r.nextChunk()
	if err != nil {
		// The panic value is an error wrapping the cause, so a recover
		// further up can errors.Is it (e.g. against ErrCorruptSpill).
		panic(err)
	}
	return pcs, dirs, n, ok
}

// nextChunk is NextChunk returning paging errors instead of panicking.
func (r *handleReader) nextChunk() (pcs []uint64, dirs []uint64, n int, ok bool, err error) {
	if r.rep != nil {
		if pcs, dirs, n, ok = r.rep.NextChunk(); ok {
			return pcs, dirs, n, true, nil
		}
		r.rep = nil
	}
	if r.next >= r.h.nchunks {
		return nil, nil, 0, false, nil
	}
	if r.dirs == nil {
		r.dirs = make([]uint64, (r.h.chunkEvents+63)/64)
	}
	d, err := r.h.DecodeChunkInto(r.next, r.pcs, r.dirs)
	if err != nil {
		return nil, nil, 0, false, fmt.Errorf("trace: paging chunk %d: %w", r.next, err)
	}
	r.next++
	r.pcs = d.PCs
	return d.PCs, d.Dirs, d.N, true, nil
}

// Replay drives every recorded event through sink, paging spilled
// chunks as needed. Paging errors panic with context, matching
// ChunkReader.
func (h *Handle) Replay(sink Sink) {
	r := h.ChunkReader()
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

// Source returns an event-at-a-time view of the recording. Unlike
// Replay, a paging error is returned by Next rather than panicking.
func (h *Handle) Source() Source {
	return &chunkSource{next: h.newReader().nextChunk}
}
