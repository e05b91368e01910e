package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Spill-file machinery for out-of-core recordings: BTR2 files (codec.go)
// double as the paging store behind a Handle. A resident chunk is one
// BTR2 frame held in memory, so the one encoder below writes every
// chunk, in memory or on disk, and the one decoder reads it back: a
// spill file is the frames written verbatim between header and
// trailer, random access is one bounded ReadAt per frame, and the frame
// checksum is verified on every decode.

// frame is one BTR2 chunk frame: n events encoded as groups in payload,
// their deltas chaining from startPC, and crc the payload's CRC32C.
type frame struct {
	payload []byte
	startPC uint64
	crc     uint32
	n       int
}

// payloadBytes sums the frames' payload lengths.
func payloadBytes(frames []frame) int64 {
	var n int64
	for i := range frames {
		n += int64(len(frames[i].payload))
	}
	return n
}

// frameEncoder cuts an event stream into frames of chunkEvents events.
// Each group's mask byte is appended when the group's first event
// arrives and its bits are set in place, so the payload is built
// without a per-group staging copy.
type frameEncoder struct {
	chunkEvents int
	cur         frame // the open frame
	mask        int   // offset in cur.payload of the open group's mask byte
	lastPC      uint64
	events      int64
}

// newFrameEncoder returns an encoder cutting frames every chunkEvents
// events (<= 0 means DefaultChunkEvents).
func newFrameEncoder(chunkEvents int) frameEncoder {
	if chunkEvents <= 0 {
		chunkEvents = DefaultChunkEvents
	}
	return frameEncoder{chunkEvents: chunkEvents}
}

// add encodes one event into the open frame and reports whether that
// filled it; the caller then takes the frame with seal.
func (e *frameEncoder) add(pc uint64, taken bool) bool {
	f := &e.cur
	if f.n == 0 {
		f.startPC = e.lastPC
		if f.payload == nil {
			// Reserve for the common ~1.2 byte/event case; rare
			// delta-heavy frames just grow.
			f.payload = make([]byte, 0, e.chunkEvents+e.chunkEvents/4)
		}
	}
	if f.n%groupSize == 0 {
		e.mask = len(f.payload)
		f.payload = append(f.payload, 0)
	}
	if taken {
		f.payload[e.mask] |= 1 << (f.n % groupSize)
	}
	if d := zigzag(int64(pc - e.lastPC)); d < 0x80 {
		f.payload = append(f.payload, byte(d))
	} else {
		f.payload = binary.AppendUvarint(f.payload, d)
	}
	e.lastPC = pc
	e.events++
	f.n++
	return f.n == e.chunkEvents
}

// seal checksums and returns the open frame, which must hold events.
// The next frame starts in a fresh buffer; a caller that does not keep
// the frame may hand its payload back through cur.payload.
func (e *frameEncoder) seal() frame {
	f := e.cur
	f.crc = crc32.Checksum(f.payload, castagnoli)
	e.cur = frame{}
	return f
}

// decode verifies the frame's payload against its checksum and decodes
// its n events, chunk k of the recording, into pcs and dirs, reused
// when large enough. Resident and paged-in chunks both decode here, so
// a damaged frame is detected before a single wrong event reaches a
// replay. Both columns are sized by n, which the spill scan has bounded
// by the payload length, never by the header's declared granularity.
func (fr *frame) decode(k int, pcs, dirs []uint64) (DecodedChunk, error) {
	payload, n := fr.payload, fr.n
	if crc32.Checksum(payload, castagnoli) != fr.crc {
		return DecodedChunk{}, &CorruptError{Chunk: k, Reason: "chunk checksum mismatch"}
	}
	if cap(pcs) < n {
		pcs = make([]uint64, n)
	}
	pcs = pcs[:n]
	words := (n + 63) / 64
	if cap(dirs) < words {
		dirs = make([]uint64, words)
	}
	dirs = dirs[:words]
	clear(dirs)

	// A group's mask byte precedes its events' deltas. A group starts at
	// a multiple of 8 events, so its directions land in one bitmap word;
	// mask bits past a short final group are ignored. One-byte varints,
	// most deltas, decode inline.
	p, pc := 0, fr.startPC
	for i := range pcs {
		if i%groupSize == 0 {
			if p >= len(payload) {
				return DecodedChunk{}, &CorruptError{Chunk: k, Reason: "undecodable chunk bytes"}
			}
			m := min(groupSize, n-i)
			dirs[i>>6] |= uint64(payload[p]) & (1<<m - 1) << (uint(i) & 63)
			p++
		}
		var d uint64
		if p < len(payload) && payload[p] < 0x80 {
			d = uint64(payload[p])
			p++
		} else {
			x, w := binary.Uvarint(payload[p:])
			if w <= 0 {
				return DecodedChunk{}, &CorruptError{Chunk: k, Reason: "undecodable chunk bytes"}
			}
			d, p = x, p+w
		}
		pc += uint64(unzigzag(d))
		pcs[i] = pc
	}
	return DecodedChunk{PCs: pcs, Dirs: dirs, N: n}, nil
}

// spillWriter lands one BTR2 file: the header, then frames written
// verbatim, then the trailer. With path == "" the file is an anonymous
// temp file, unlinked at once (the open descriptor keeps it readable
// and the OS reclaims it when the handle is garbage, crash included).
// With a path it is written via temp, fsync and rename, so a process
// killed at any point leaves either the complete file or a stray .tmp
// that no probe ever opens, never a torn .btr. Write errors are sticky
// and reported by finish.
type spillWriter struct {
	f       *os.File
	bw      *bufio.Writer
	sio     SpillIO
	path    string
	tmpPath string
	off     int64      // bytes written: the header and whole frames
	idx     []chunkPos // the written frames' positions
	err     error
}

// createSpill opens a spill file for frames of chunkEvents events and
// writes its header through sio.
func createSpill(path string, chunkEvents int, sio SpillIO) (*spillWriter, error) {
	w := &spillWriter{path: path, sio: sio}
	var err error
	if path == "" {
		if w.f, err = os.CreateTemp("", "btr-stream-*.btr"); err != nil {
			return nil, err
		}
		os.Remove(w.f.Name())
	} else {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if w.f, err = os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*"); err != nil {
			return nil, err
		}
		w.tmpPath = w.f.Name()
	}
	w.bw = bufio.NewWriterSize(faultWriter{f: w.f, sio: sio}, 1<<16)
	w.write(binary.AppendUvarint(magic[:], uint64(chunkEvents)))
	if w.err != nil {
		w.discard()
		return nil, w.err
	}
	return w, nil
}

func (w *spillWriter) write(b []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.bw.Write(b); err != nil {
		w.err = fmt.Errorf("trace: writing spill file: %w", err)
	}
	w.off += int64(len(b))
}

// writeFrame writes f's header (event count, payload length, chaining
// PC, CRC32C) and payload, and indexes the payload's position.
func (w *spillWriter) writeFrame(f *frame) {
	var buf [3*binary.MaxVarintLen64 + 4]byte
	hdr := binary.AppendUvarint(buf[:0], uint64(f.n))
	hdr = binary.AppendUvarint(hdr, uint64(len(f.payload)))
	hdr = binary.AppendUvarint(hdr, f.startPC)
	w.write(binary.LittleEndian.AppendUint32(hdr, f.crc))
	w.idx = append(w.idx, chunkPos{off: w.off, startPC: f.startPC, plen: int64(len(f.payload)), crc: f.crc})
	w.write(f.payload)
}

// finish writes the end-of-stream trailer for a stream of events
// events, after which truncation anywhere in the file is detectable,
// then flushes, syncs and lands the file. It returns the file's path,
// "" when it is anonymous or its rename failed (the unlinked temp
// still backs the open descriptor, so only the durable path is lost).
// A failed finish discards the file.
func (w *spillWriter) finish(events int64) (string, error) {
	w.write(binary.AppendUvarint([]byte{0}, uint64(events)))
	if w.err == nil {
		if err := w.bw.Flush(); err != nil {
			w.err = fmt.Errorf("trace: writing spill file: %w", err)
		}
	}
	if w.err == nil {
		if err := w.sio.Sync(w.f); err != nil {
			w.err = fmt.Errorf("trace: syncing spill file: %w", err)
		}
	}
	if w.err != nil {
		w.discard()
		return "", w.err
	}
	tmp := w.tmpPath
	w.tmpPath = ""
	if tmp == "" {
		return "", nil
	}
	if err := os.Rename(tmp, w.path); err != nil {
		os.Remove(tmp)
		return "", nil
	}
	return w.path, nil
}

// discard closes and removes the file.
func (w *spillWriter) discard() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	if w.tmpPath != "" {
		os.Remove(w.tmpPath)
		w.tmpPath = ""
	}
}

// spillTo writes a memory-only handle's frames verbatim as a BTR2 file
// at path (a write-through by the cache) and records that the
// recording now also lives there. The file is reopened on the first
// page-in, which also builds the chunk index.
func (h *Handle) spillTo(path string) error {
	h.mu.Lock()
	res := h.res
	h.mu.Unlock()
	w, err := createSpill(path, h.chunkEvents, defaultSpillIO)
	if err != nil {
		return err
	}
	for i := range res {
		w.writeFrame(&res[i])
	}
	landed, err := w.finish(h.events)
	if err != nil {
		return err
	}
	w.f.Close()
	if landed == "" {
		return fmt.Errorf("trace: spill file did not land at %s", path)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.path == "" && h.f == nil {
		h.path = path
	}
	return nil
}

// countingReader tracks the byte offset of a buffered reader, so the
// spill scanner can record exact chunk positions, and remembers the
// first read failure other than EOF, so the scanner can tell I/O
// trouble from damage.
type countingReader struct {
	br    *bufio.Reader
	off   int64
	ioErr error
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.off += int64(n)
	c.noteErr(err)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.off++
	}
	c.noteErr(err)
	return b, err
}

func (c *countingReader) noteErr(err error) {
	if err != nil && err != io.EOF && c.ioErr == nil {
		c.ioErr = err
	}
}

// scanSpill walks a BTR2 stream once, building the chunk index without
// retaining frames, and reports the event count, the total payload
// bytes (what holding every frame resident would cost) and the
// granularity the file declares. chunkEvents > 0 must match that
// granularity; chunkEvents <= 0 accepts it. Checksums are deferred to
// page-in (the scan is the cheap open path), but frame structure and
// the trailer are verified, so a truncated file fails here.
func scanSpill(r io.Reader, chunkEvents int) (idx []chunkPos, events int64, payload int64, granularity int, err error) {
	c := &countingReader{br: bufio.NewReaderSize(r, 1<<16)}
	var hdr [4]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("trace: reading spill header: %w", err)
	}
	if hdr != magic {
		return nil, 0, 0, 0, ErrBadMagic
	}
	declared, err := binary.ReadUvarint(c)
	if err != nil || declared == 0 || declared > maxChunkEvents {
		return nil, 0, 0, 0, &CorruptError{Chunk: -1, Reason: "bad chunk granularity in header"}
	}
	if chunkEvents > 0 && int(declared) != chunkEvents {
		return nil, 0, 0, 0, fmt.Errorf("trace: spill file chunks every %d events, want %d", declared, chunkEvents)
	}
	granularity = int(declared)
	corrupt := func(chunk int, reason string) ([]chunkPos, int64, int64, int, error) {
		return nil, 0, 0, 0, &CorruptError{Chunk: chunk, Reason: reason}
	}
	// A field that fails to read is truncation or an overlong varint —
	// damage — unless the file itself failed to read.
	fieldErr := func(chunk int, reason string) ([]chunkPos, int64, int64, int, error) {
		if c.ioErr != nil {
			return nil, 0, 0, 0, fmt.Errorf("trace: scanning spill: %w", c.ioErr)
		}
		return corrupt(chunk, reason)
	}
	short := false
	for {
		n, err := binary.ReadUvarint(c)
		if err != nil {
			return fieldErr(len(idx), "stream ends without its trailer (truncated?)")
		}
		if n == 0 {
			total, err := binary.ReadUvarint(c)
			if err != nil {
				return fieldErr(-1, "truncated end-of-stream trailer")
			}
			if int64(total) != events {
				return corrupt(-1, fmt.Sprintf("trailer counts %d events, stream holds %d", total, events))
			}
			if _, err := c.ReadByte(); err != io.EOF {
				return corrupt(-1, "bytes past the end-of-stream trailer")
			}
			return idx, events, payload, granularity, nil
		}
		if short {
			return corrupt(len(idx), "short chunk frame is not the last")
		}
		if n > declared {
			return corrupt(len(idx), fmt.Sprintf("chunk frame holds %d events, granularity is %d", n, declared))
		}
		if n < declared {
			short = true
		}
		plen, err := binary.ReadUvarint(c)
		if err != nil {
			return fieldErr(len(idx), "truncated chunk frame header")
		}
		// Every event costs at least one delta byte and every group one
		// mask byte, so a shorter payload is damage — and rejecting it
		// here keeps a forged event count from sizing a decode buffer.
		if plen > maxChunkPayload || plen < n+(n+groupSize-1)/groupSize {
			return corrupt(len(idx), "bad chunk frame length")
		}
		startPC, err := binary.ReadUvarint(c)
		if err != nil {
			return fieldErr(len(idx), "truncated chunk frame header")
		}
		var crcb [4]byte
		if _, err := io.ReadFull(c, crcb[:]); err != nil {
			return fieldErr(len(idx), "truncated chunk frame header")
		}
		payloadOff := c.off
		if _, err := io.CopyN(io.Discard, c, int64(plen)); err != nil {
			return fieldErr(len(idx), "truncated chunk payload")
		}
		idx = append(idx, chunkPos{
			off:     payloadOff,
			startPC: startPC,
			plen:    int64(plen),
			crc:     binary.LittleEndian.Uint32(crcb[:]),
		})
		events += int64(n)
		payload += int64(plen)
	}
}

// pageBufPool recycles the scratch buffers spill page-ins read frame
// payloads into. The decode copies everything it needs into the chunk's
// columns, so the buffer never outlives the call and steady-state
// streaming does zero per-page-in allocations.
var pageBufPool = sync.Pool{New: func() any { return new([]byte) }}

// readChunkAt pages chunk k (n events) from an open spill file: one
// ReadAt covering the frame's payload (retried with backoff on
// transient errors), then the checksum-verified decode. Buffers are
// reused when large enough.
func (h *Handle) readChunkAt(f *os.File, pos chunkPos, k, n int, pcs, dirs []uint64) (DecodedChunk, error) {
	bp := pageBufPool.Get().(*[]byte)
	defer pageBufPool.Put(bp)
	if int64(cap(*bp)) < pos.plen {
		*bp = make([]byte, pos.plen)
	}
	buf := (*bp)[:pos.plen]
	if err := h.readFull(f, buf, pos.off); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return DecodedChunk{}, &CorruptError{Chunk: k, Reason: "spill file shorter than its chunk index (truncated?)"}
		}
		return DecodedChunk{}, fmt.Errorf("trace: paging spill chunk %d: %w", k, err)
	}
	fr := frame{payload: buf, startPC: pos.startPC, crc: pos.crc, n: n}
	return fr.decode(k, pcs, dirs)
}

// faultWriter adapts a SpillIO's Write to io.Writer for one file, so a
// bufio.Writer (and the encoder above it) flushes through the
// injectable layer.
type faultWriter struct {
	f   *os.File
	sio SpillIO
}

func (fw faultWriter) Write(p []byte) (int, error) { return fw.sio.Write(fw.f, p) }

// StreamRecorder is a Sink that writes a recording straight to a BTR2
// spill file as events arrive, keeping at most a bounded prefix of its
// frames resident — the out-of-core replacement for recording into a
// ChunkRecorder and spilling afterwards, with peak memory O(budget)
// instead of O(trace). Seal returns the finished recording as a Handle
// whose resident prefix serves the hot head of replays and whose
// remainder pages back in from the file it just wrote.
//
// With path == "" the recorder writes an anonymous temp file, so a
// bounded run without a cache directory leaves nothing behind. With a
// path the file lands exactly where the trace cache's spill probe will
// find it, and never as a torn .btr.
//
// The resident budget is a target, not a hard wall: retention stops at
// the first chunk boundary past it, so the prefix may overshoot by up
// to one chunk. residentBudget <= 0 retains nothing.
type StreamRecorder struct {
	w         *spillWriter
	enc       frameEncoder
	budget    int64
	kept      []frame // the resident prefix
	keptBytes int64
	keep      bool // still retaining: the prefix is under budget
	sealed    bool
}

var _ Sink = (*StreamRecorder)(nil)

// NewStreamRecorder opens a streaming recorder writing to path (or an
// anonymous temp file when path is ""), cutting chunks every
// chunkEvents events (<= 0 means DefaultChunkEvents) and keeping about
// residentBudget bytes of leading frames in memory.
func NewStreamRecorder(path string, chunkEvents int, residentBudget int64) (*StreamRecorder, error) {
	return NewStreamRecorderIO(path, chunkEvents, residentBudget, nil)
}

// NewStreamRecorderIO is NewStreamRecorder with an injectable I/O layer
// (nil means direct file ops). The handle Seal returns inherits it, so
// a fault schedule covers the recording's page-ins too.
func NewStreamRecorderIO(path string, chunkEvents int, residentBudget int64, sio SpillIO) (*StreamRecorder, error) {
	if sio == nil {
		sio = defaultSpillIO
	}
	enc := newFrameEncoder(chunkEvents)
	w, err := createSpill(path, enc.chunkEvents, sio)
	if err != nil {
		return nil, err
	}
	return &StreamRecorder{w: w, enc: enc, budget: residentBudget, keep: residentBudget > 0}, nil
}

// Branch streams one event. Write errors are sticky and reported by
// Seal.
func (s *StreamRecorder) Branch(pc uint64, taken bool) {
	if s.sealed {
		panic("trace: recording into a sealed StreamRecorder")
	}
	if s.enc.add(pc, taken) {
		s.flush()
	}
}

// flush writes the open frame and either keeps it, while the prefix is
// under budget (stopping at the first frame past it), or reuses its
// buffer for the next frame.
func (s *StreamRecorder) flush() {
	f := s.enc.seal()
	s.w.writeFrame(&f)
	if s.keep {
		s.kept = append(s.kept, f)
		s.keptBytes += int64(len(f.payload))
		s.keep = s.keptBytes <= s.budget
		return
	}
	s.enc.cur.payload = f.payload[:0]
}

// Events returns the number of events streamed so far.
func (s *StreamRecorder) Events() int64 { return s.enc.events }

// Seal flushes the final chunk and trailer, syncs and lands the file
// (temp-and-rename for named paths) and returns the recording as a
// Handle: resident prefix in memory, everything else paged from the
// file on demand. Call it exactly once; a failed Seal cleans up after
// itself.
func (s *StreamRecorder) Seal() (*Handle, error) {
	if s.sealed {
		panic("trace: sealing a sealed StreamRecorder")
	}
	if s.enc.cur.n > 0 {
		s.flush()
	}
	s.sealed = true
	path, err := s.w.finish(s.enc.events)
	if err != nil {
		return nil, err
	}
	var encoded int64
	for _, pos := range s.w.idx {
		encoded += pos.plen
	}
	return &Handle{
		chunkEvents:  s.enc.chunkEvents,
		events:       s.enc.events,
		nchunks:      len(s.w.idx),
		encoded:      encoded,
		residentPeak: s.keptBytes,
		res:          s.kept,
		path:         path,
		f:            s.w.f,
		fileSize:     s.w.off,
		idx:          s.w.idx,
		sio:          s.w.sio,
	}, nil
}

// Discard abandons the recording, closing and removing any file the
// recorder created. Safe to call after a failed Seal or on an
// abandoned recorder; a successful Seal hands the file to the Handle
// and Discard must not be called.
func (s *StreamRecorder) Discard() {
	s.w.discard()
	s.sealed = true
}
