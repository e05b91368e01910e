package trace

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Handle is the out-of-core view of one recording: the BTR2 frames a
// ChunkedTrace holds, which may live in memory, in a BTR2 spill file,
// or both. A fully resident handle wraps an existing trace with zero
// copying; a spill-backed handle pages frames in on demand and can
// drop its resident frames (Release) without invalidating readers.
// Every chunk, resident or paged in, decodes through one
// checksum-verified decoder, so a replay sees the same columns, and the
// same errors, wherever the frame lives. Replay paths — the simulator's
// bank sweep, ablation replays, CLI audits — read through a Handle, so
// peak memory is bounded by what the caller chooses to keep resident.
//
// A Handle is safe for concurrent use. Decoded chunks are immutable
// once returned; releasing residency mid-read only affects where later
// reads come from, never the bytes they see.

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
	encoded      int64 // payload bytes of every frame
	residentPeak int64 // high-water mark of resident payload bytes

	mu       sync.Mutex
	res      []frame  // resident frame prefix (possibly every frame)
	path     string   // spill file, "" for anonymous temp or memory-only
	f        *os.File // open spill file, lazily opened from path
	fileSize int64
	idx      []chunkPos // per-chunk file positions, lazily built
	sio      SpillIO    // injectable spill file ops; nil = direct

	pageIns     atomic.Int64
	readRetries atomic.Int64
}

// NewResidentHandle wraps an in-memory trace as a fully resident
// handle. No copying: the handle shares the trace's immutable frames.
func NewResidentHandle(tr *ChunkedTrace) *Handle {
	size := tr.SizeBytes()
	return &Handle{
		chunkEvents:  tr.chunkEvents,
		events:       tr.events,
		nchunks:      len(tr.frames),
		encoded:      size,
		residentPeak: size,
		res:          tr.frames,
	}
}

// OpenSpillHandle opens a BTR2 spill file as a handle with no resident
// frames: one sequential scan builds the chunk index (offsets only — no
// payloads are retained), after which chunks page in on demand. The file
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
	idx, events, payload, chunkEvents, err := scanSpill(io.NewSectionReader(f, 0, st.Size()), chunkEvents)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Handle{
		chunkEvents: chunkEvents,
		events:      events,
		nchunks:     len(idx),
		encoded:     payload,
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

// EncodedBytes returns the payload bytes of every frame: what holding
// the whole recording resident costs, resident or not.
func (h *Handle) EncodedBytes() int64 { return h.encoded }

// ResidentBytes returns the payload bytes of the frames currently in
// memory.
func (h *Handle) ResidentBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return payloadBytes(h.res)
}

// ResidentPeak returns the high-water mark of resident payload bytes
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

// Release drops the resident frames of a spill-backed handle and
// returns the bytes freed; later reads page back in from disk. A
// memory-only handle keeps its frames (dropping them would lose the
// recording) and returns 0.
func (h *Handle) Release() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.f == nil && h.path == "" {
		return 0
	}
	freed := payloadBytes(h.res)
	h.res = nil
	return freed
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

// DecodeChunk decodes chunk k into fresh columns, from its resident
// frame when it has one, otherwise paging the frame from the spill file.
func (h *Handle) DecodeChunk(k int) (DecodedChunk, error) {
	return h.DecodeChunkInto(k, nil, nil)
}

// DecodeChunkInto is DecodeChunk decoding into the caller's buffers
// when they are large enough (nil allocates): the returned columns are
// always those buffers or fresh ones. A resident frame and a paged-in
// one go through the same checksum-verified decode, so damage to
// either returns an error unwrapping to ErrCorruptSpill.
func (h *Handle) DecodeChunkInto(k int, pcs, dirs []uint64) (DecodedChunk, error) {
	if k < 0 || k >= h.nchunks {
		return DecodedChunk{}, fmt.Errorf("trace: chunk %d out of range [0,%d)", k, h.nchunks)
	}
	var d DecodedChunk
	var err error
	h.mu.Lock()
	if k < len(h.res) {
		fr := h.res[k]
		h.mu.Unlock()
		d, err = fr.decode(k, pcs, dirs)
	} else {
		var f *os.File
		var idx []chunkPos
		f, err = h.fileLocked()
		if err == nil {
			idx, err = h.indexLocked()
		}
		h.mu.Unlock()
		if err != nil {
			return DecodedChunk{}, err
		}
		d, err = h.readChunkAt(f, idx[k], k, h.chunkLen(k), pcs, dirs)
		if err == nil {
			h.pageIns.Add(1)
		}
	}
	d.Base = int64(k) * int64(h.chunkEvents)
	return d, err
}

// Reader reads a recording chunk by chunk in stream order, each chunk
// through DecodeChunkInto into buffers the reader owns: the columns
// one Next returns are overwritten by the next. Open points a reader
// at another recording and keeps its buffers, so one reader can serve
// many recordings in turn. Any number of readers may read one handle
// concurrently.
type Reader struct {
	h    *Handle
	next int
	pcs  []uint64
	dirs []uint64
}

// NewReader returns a reader at the recording's first chunk.
func (h *Handle) NewReader() *Reader { return &Reader{h: h} }

// Open rewinds r to the first chunk of h, keeping r's buffers.
func (r *Reader) Open(h *Handle) { r.h, r.next = h, 0 }

// Next decodes the next chunk; ok is false once the recording is
// exhausted. A paging failure or detected damage is returned as err
// (errors.Is ErrCorruptSpill for damage).
func (r *Reader) Next() (d DecodedChunk, ok bool, err error) {
	if r.next >= r.h.nchunks {
		return DecodedChunk{}, false, nil
	}
	if d, err = r.h.DecodeChunkInto(r.next, r.pcs, r.dirs); err != nil {
		return DecodedChunk{}, false, err
	}
	r.next++
	r.pcs, r.dirs = d.PCs, d.Dirs
	return d, true, nil
}

// Replay drives every recorded event through sink. Sinks have no error
// path, so a paging error panics with the error as its value (a recover
// further up can errors.Is it; the simulator turns such panics into
// per-input errors).
func (h *Handle) Replay(sink Sink) {
	r := h.NewReader()
	for {
		d, ok, err := r.Next()
		if err != nil {
			panic(err)
		}
		if !ok {
			return
		}
		for i := 0; i < d.N; i++ {
			sink.Branch(d.PCs[i], d.Dirs[i>>6]&(1<<(uint(i)&63)) != 0)
		}
	}
}

// Source returns an event-at-a-time view of the recording. Unlike
// Replay, a paging error is returned by Next rather than panicking.
func (h *Handle) Source() Source { return &chunkSource{r: h.NewReader()} }

// chunkSource is an event-at-a-time view over a Reader.
type chunkSource struct {
	r *Reader
	d DecodedChunk
	i int
}

func (s *chunkSource) Next() (Event, bool, error) {
	for s.i >= s.d.N {
		d, ok, err := s.r.Next()
		if !ok {
			return Event{}, false, err
		}
		s.d, s.i = d, 0
	}
	i := s.i
	s.i++
	return Event{PC: s.d.PCs[i], Taken: s.d.Dirs[i>>6]&(1<<(uint(i)&63)) != 0}, true, nil
}
