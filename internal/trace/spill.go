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
// double as the paging store behind a Handle. Their frames map 1:1 onto
// the handle's chunks, so random access is one bounded ReadAt per frame,
// and the frame checksum is verified on every page-in.

// spillEncoder streams events into BTR2 chunk frames on an io.Writer,
// tracking the chunk index as it goes. It is the shared encoding core
// of writeSpill (whole trace at once) and StreamRecorder (out-of-core,
// event at a time).
type spillEncoder struct {
	w           io.Writer
	chunkEvents int

	off          int64 // bytes emitted: header + completed frames
	idx          []chunkPos
	groupMask    byte
	groupDeltas  []byte
	np           int // events pending in the current group
	lastPC       uint64
	chunkStartPC uint64
	chunkN       int    // events in the open chunk
	chunkBuf     []byte // the open chunk's encoded groups
	events       int64
	deltaBytes   int64

	err error
}

// newSpillEncoder writes the BTR2 header and returns an encoder cutting
// frames every chunkEvents events (<= 0 means DefaultChunkEvents).
func newSpillEncoder(w io.Writer, chunkEvents int) (*spillEncoder, error) {
	if chunkEvents <= 0 {
		chunkEvents = DefaultChunkEvents
	}
	e := &spillEncoder{w: w, chunkEvents: chunkEvents}
	var hdr [4 + binary.MaxVarintLen64]byte
	copy(hdr[:], magic[:])
	n := 4 + binary.PutUvarint(hdr[4:], uint64(chunkEvents))
	if _, err := w.Write(hdr[:n]); err != nil {
		return nil, fmt.Errorf("trace: writing spill header: %w", err)
	}
	e.off = int64(n)
	return e, nil
}

// Branch encodes one event. Write errors are sticky; finish reports them.
func (e *spillEncoder) Branch(pc uint64, taken bool) {
	if e.err != nil {
		return
	}
	if e.chunkN == 0 {
		e.chunkStartPC = e.lastPC
	}
	if taken {
		e.groupMask |= 1 << uint(e.np)
	}
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], zigzag(int64(pc-e.lastPC)))
	e.groupDeltas = append(e.groupDeltas, scratch[:n]...)
	e.deltaBytes += int64(n)
	e.lastPC = pc
	e.np++
	e.chunkN++
	e.events++
	if e.np == groupSize {
		e.emitGroup()
	}
	if e.chunkN == e.chunkEvents {
		e.flushChunk()
	}
}

// emitGroup appends the pending (possibly short) group to the open
// chunk's payload. Short groups only ever end a chunk: Branch emits at
// every 8th event, and flushChunk drains the remainder.
func (e *spillEncoder) emitGroup() {
	if e.np == 0 {
		return
	}
	e.chunkBuf = append(e.chunkBuf, e.groupMask)
	e.chunkBuf = append(e.chunkBuf, e.groupDeltas...)
	e.np = 0
	e.groupMask = 0
	e.groupDeltas = e.groupDeltas[:0]
}

// flushChunk frames and writes the open chunk: header (event count,
// payload length, chaining PC, CRC32C), then the payload.
func (e *spillEncoder) flushChunk() {
	if e.err != nil || e.chunkN == 0 {
		return
	}
	e.emitGroup()
	sum := crc32.Checksum(e.chunkBuf, castagnoli)
	var hdr [3*binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(e.chunkN))
	n += binary.PutUvarint(hdr[n:], uint64(len(e.chunkBuf)))
	n += binary.PutUvarint(hdr[n:], e.chunkStartPC)
	binary.LittleEndian.PutUint32(hdr[n:], sum)
	n += 4
	if _, err := e.w.Write(hdr[:n]); err != nil {
		e.err = fmt.Errorf("trace: writing spill chunk frame: %w", err)
		return
	}
	if _, err := e.w.Write(e.chunkBuf); err != nil {
		e.err = fmt.Errorf("trace: writing spill chunk payload: %w", err)
		return
	}
	e.idx = append(e.idx, chunkPos{
		off:     e.off + int64(n),
		startPC: e.chunkStartPC,
		plen:    int64(len(e.chunkBuf)),
		crc:     sum,
	})
	e.off += int64(n) + int64(len(e.chunkBuf))
	e.chunkBuf = e.chunkBuf[:0]
	e.chunkN = 0
}

// finish flushes the final (possibly short) chunk and writes the
// end-of-stream trailer, after which truncation anywhere in the file is
// detectable.
func (e *spillEncoder) finish() error {
	e.flushChunk()
	if e.err != nil {
		return e.err
	}
	var tr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tr[:], 0)
	n += binary.PutUvarint(tr[n:], uint64(e.events))
	if _, err := e.w.Write(tr[:n]); err != nil {
		return fmt.Errorf("trace: writing spill trailer: %w", err)
	}
	e.off += int64(n)
	return nil
}

// writeSpill encodes the trace as a BTR2 file, via a temp file, fsync
// and rename: a process killed at any point leaves either the complete
// file or a stray .tmp that no probe ever opens — never a torn .btr.
func writeSpill(path string, tr *ChunkedTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	enc, err := newSpillEncoder(bw, tr.chunkEvents)
	if err == nil {
		tr.Replay(enc)
		err = enc.finish()
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
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
// retaining columns, and reports the event count, the total delta bytes
// (from which a would-be resident footprint is derived) and the
// granularity the file declares. chunkEvents > 0 must match that
// granularity; chunkEvents <= 0 accepts it. Checksums are deferred to
// page-in (the scan is the cheap open path), but frame structure and
// the trailer are verified, so a truncated file fails here.
func scanSpill(r io.Reader, chunkEvents int) (idx []chunkPos, events int64, deltaBytes int64, granularity int, err error) {
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
			return idx, events, deltaBytes, granularity, nil
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
		deltaBytes += int64(plen) - (int64(n)+groupSize-1)/groupSize
	}
}

// pageBufPool recycles the scratch buffers spill page-ins read encoded
// spans into. The decode copies everything it needs into the chunk's
// columns, so the buffer never outlives the call and steady-state
// streaming does zero per-page-in allocations.
var pageBufPool = sync.Pool{New: func() any { return new([]byte) }}

// getPageBuf returns a pooled scratch buffer of length n.
func getPageBuf(n int) *[]byte {
	bp := pageBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putPageBuf(bp *[]byte) { pageBufPool.Put(bp) }

// readChunkAt pages chunk k (n events) from an open spill file: one
// ReadAt covering the chunk's span (retried with backoff on transient
// errors), then a checksum-verified decode. Buffers are reused when
// large enough.
func (h *Handle) readChunkAt(f *os.File, pos chunkPos, k, n int, pcs, dirs []uint64) (DecodedChunk, error) {
	bp := getPageBuf(int(pos.plen))
	defer putPageBuf(bp)
	buf := *bp
	if err := h.readFull(f, buf, pos.off); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return DecodedChunk{}, &CorruptError{Chunk: k, Reason: "spill file shorter than its chunk index (truncated?)"}
		}
		return DecodedChunk{}, fmt.Errorf("trace: paging spill chunk %d: %w", k, err)
	}
	return decodeChunk(buf, pos, k, n, pcs, dirs)
}

// decodeChunk verifies and decodes chunk k (n events) from buf, which
// must start with the chunk's payload. Every page-in funnels through
// here, so a damaged chunk is detected before a single wrong event
// reaches a replay. Both columns are sized by n, which the scan has
// bounded by the payload length, never by the header's declared
// granularity.
func decodeChunk(buf []byte, pos chunkPos, k, n int, pcs, dirs []uint64) (DecodedChunk, error) {
	if int64(len(buf)) < pos.plen {
		return DecodedChunk{}, &CorruptError{Chunk: k, Reason: "chunk payload extends past end of file"}
	}
	buf = buf[:pos.plen]
	if crc32.Checksum(buf, castagnoli) != pos.crc {
		return DecodedChunk{}, &CorruptError{Chunk: k, Reason: "chunk checksum mismatch"}
	}
	corrupt := func() (DecodedChunk, error) {
		return DecodedChunk{}, &CorruptError{Chunk: k, Reason: "undecodable chunk bytes"}
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
	for i := range dirs {
		dirs[i] = 0
	}

	var mask byte
	p, gi := 0, groupSize
	pc := pos.startPC
	for i := 0; i < n; i++ {
		if gi == groupSize {
			if p >= len(buf) {
				return corrupt()
			}
			mask = buf[p]
			p++
			gi = 0
		}
		word, w := binary.Uvarint(buf[p:])
		if w <= 0 {
			return corrupt()
		}
		p += w
		pc += uint64(unzigzag(word))
		pcs[i] = pc
		if mask&(1<<uint(gi)) != 0 {
			dirs[i>>6] |= 1 << (uint(i) & 63)
		}
		gi++
	}
	return DecodedChunk{PCs: pcs, Dirs: dirs, N: n}, nil
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
// spill file as events arrive, keeping at most a bounded prefix of
// chunk columns resident — the out-of-core replacement for recording
// into a ChunkRecorder and spilling afterwards, with peak memory
// O(budget) instead of O(trace). Seal returns the finished recording
// as a Handle whose resident prefix serves the hot head of replays and
// whose remainder pages back in from the file it just wrote.
//
// With path == "" the recorder writes an anonymous temp file (unlinked
// immediately; the open descriptor keeps it readable), so a bounded
// run without a cache directory leaves nothing behind. With a path the
// file is written via temp, fsync and rename, landing exactly where the
// trace cache's spill probe will find it — and never as a torn .btr.
//
// The resident budget is a target, not a hard wall: retention stops at
// the first chunk boundary past it, so the prefix may overshoot by up
// to one chunk. residentBudget <= 0 retains nothing.
type StreamRecorder struct {
	f         *os.File
	bw        *bufio.Writer
	tmpPath   string
	finalPath string
	sio       SpillIO

	enc *spillEncoder

	rec           *ChunkRecorder // resident-prefix recorder; nil once the budget is hit
	budget        int64
	prefix        *ChunkedTrace
	retainedBytes int64

	sealed bool
}

var _ Sink = (*StreamRecorder)(nil)

// NewStreamRecorder opens a streaming recorder writing to path (or an
// anonymous temp file when path is ""), cutting chunks every
// chunkEvents events (<= 0 means DefaultChunkEvents) and keeping about
// residentBudget bytes of leading chunk columns in memory.
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
	s := &StreamRecorder{budget: residentBudget, finalPath: path, sio: sio}
	var err error
	if path == "" {
		s.f, err = os.CreateTemp("", "btr-stream-*.btr")
		if err != nil {
			return nil, err
		}
		// Unlink immediately: the descriptor keeps the file readable and
		// the OS reclaims it when the handle is garbage, crash included.
		os.Remove(s.f.Name())
	} else {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		s.f, err = os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
		if err != nil {
			return nil, err
		}
		s.tmpPath = s.f.Name()
	}
	s.bw = bufio.NewWriterSize(faultWriter{f: s.f, sio: sio}, 1<<16)
	s.enc, err = newSpillEncoder(s.bw, chunkEvents)
	if err != nil {
		s.Discard()
		return nil, err
	}
	if residentBudget > 0 {
		s.rec = NewChunkRecorder(s.enc.chunkEvents)
	}
	return s, nil
}

// Branch streams one event. Write errors are sticky and reported by
// Seal.
func (s *StreamRecorder) Branch(pc uint64, taken bool) {
	if s.sealed {
		panic("trace: recording into a sealed StreamRecorder")
	}
	if s.enc.err != nil {
		return
	}
	s.enc.Branch(pc, taken)
	if s.rec != nil {
		s.rec.Branch(pc, taken)
		if s.enc.chunkN == 0 {
			// A chunk just completed (the prefix recorder cuts at the same
			// boundaries, so it just flushed too): charge it, and stop
			// retaining at the first boundary past the budget.
			last := &s.rec.tr.chunks[len(s.rec.tr.chunks)-1]
			s.retainedBytes += int64(len(last.deltas)) + int64(len(last.dirs))*8
			if s.retainedBytes > s.budget {
				s.prefix = s.rec.Trace()
				s.rec = nil
			}
		}
	}
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
	err := s.enc.finish()
	if err == nil {
		err = s.bw.Flush()
	}
	if err == nil {
		if serr := s.sio.Sync(s.f); serr != nil {
			err = fmt.Errorf("trace: syncing spill file: %w", serr)
		}
	}
	if err != nil {
		s.Discard()
		return nil, err
	}
	s.sealed = true

	path := ""
	if s.tmpPath != "" {
		if err := os.Rename(s.tmpPath, s.finalPath); err != nil {
			// The unlinked temp still backs the open descriptor, so the
			// recording survives as an anonymous handle; only the durable
			// path is lost.
			os.Remove(s.tmpPath)
		} else {
			path = s.finalPath
		}
		s.tmpPath = ""
	}

	prefix := s.prefix
	if s.rec != nil {
		prefix = s.rec.Trace() // the whole recording fit the budget
	}
	var peak int64
	if prefix != nil {
		peak = prefix.SizeBytes()
	}
	return &Handle{
		chunkEvents:  s.enc.chunkEvents,
		events:       s.enc.events,
		nchunks:      len(s.enc.idx),
		encoded:      s.enc.deltaBytes + int64(len(s.enc.idx))*int64((s.enc.chunkEvents+63)/64)*8,
		residentPeak: peak,
		res:          prefix,
		path:         path,
		f:            s.f,
		fileSize:     s.enc.off,
		idx:          s.enc.idx,
		sio:          s.sio,
	}, nil
}

// Discard abandons the recording, closing and removing any file the
// recorder created. Safe to call after a failed Seal or on an
// abandoned recorder; a successful Seal hands the file to the Handle
// and Discard must not be called.
func (s *StreamRecorder) Discard() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	if s.tmpPath != "" {
		os.Remove(s.tmpPath)
		s.tmpPath = ""
	}
	s.sealed = true
}
