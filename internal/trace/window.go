package trace

import (
	"fmt"
	"sync"
)

// ChunkWindow is a refcounted run of decoded chunks over one Handle,
// read by a fixed number of sequential consumers — a bank sweep's 34
// slot chains, plus its hard-distance chain on a first run. Every
// consumer walks the whole recording, chunks [0, n), in order, so the
// window needs no replacement policy: a chunk is decoded (paging from
// the spill file if need be) exactly once, by the first consumer to
// reach it, and dropped when the last consumer has passed it.
//
// Admission is bounded by depth: chunk k is decoded only while
// k < lo+depth, lo being the oldest chunk still held, so at most depth
// decoded chunks are resident at once. Depth sets itself from the
// decoded budget:
//
//	0   the whole recording (no bound; chunks still drop as the last
//	    consumer passes them);
//	> 0 max(2, budget / decoded-chunk bytes) chunks;
//	< 0 one chunk.
//
// The window never blocks its caller. A consumer that reaches a chunk
// past the admission frontier, or one another consumer is decoding, is
// parked: Checkout keeps its continuation and reports !ok. The call that
// later makes progress possible — the Checkout that installs the decode,
// or the Release that slides lo forward — returns the parked
// continuations for its caller to resume. Continuations are opaque to
// the window (type C); the simulator's are scheduler tasks, so no
// worker ever waits on another.
//
// A failed page-in, or Fail, poisons the window: parked continuations
// are dropped, decoded columns are freed, and every later Checkout
// returns the cause. A ChunkWindow is safe for concurrent use.
type ChunkWindow[C any] struct {
	h         *Handle
	consumers int // every chunk's reference count

	mu       sync.Mutex
	ring     []windowSlot[C] // chunk k lives in ring[k%len(ring)] while lo <= k < lo+len(ring)
	lo       int
	frontier []parkedAt[C] // consumers waiting for lo to advance
	err      error
	bytes    int64
	stats    WindowStats
}

// WindowStats counts window traffic. Decodes counts chunks decoded
// (each at most once), Hits checkouts served by a resident chunk,
// Released chunks dropped after their last consumer, Parks
// continuations parked; Peak is the high-water mark of resident
// decoded bytes, Resident and Parked the current values.
type WindowStats struct {
	Decodes  int64
	Hits     int64
	Released int64
	Parks    int64
	Peak     int64
	Resident int64
	Parked   int
}

type slotState uint8

const (
	slotEmpty    slotState = iota // not yet admitted
	slotDecoding                  // a consumer is decoding it
	slotReady                     // decoded, held by refs consumers
	slotReleased                  // passed by every consumer, lo not yet past it
)

type windowSlot[C any] struct {
	state   slotState
	refs    int
	d       DecodedChunk
	waiters []C
}

type parkedAt[C any] struct {
	k    int
	cont C
}

// DecodedChunkBytes is the decoded footprint of one full chunk of
// chunkEvents events: the PC column plus the direction bitmap.
func DecodedChunkBytes(chunkEvents int) int64 {
	return int64(chunkEvents)*8 + int64((chunkEvents+63)/64)*8
}

// windowDepth resolves a decoded budget to a window depth in chunks for
// a recording of nchunks chunks of chunkEvents events.
func windowDepth(budget int64, nchunks, chunkEvents int) int {
	d := nchunks
	switch {
	case budget < 0:
		d = 1
	case budget > 0:
		d = max(2, int(min(budget/DecodedChunkBytes(chunkEvents), int64(nchunks))))
	}
	return max(1, min(d, nchunks))
}

// NewChunkWindow builds a window over h sized by the decoded budget,
// read by the given number of consumers.
func NewChunkWindow[C any](h *Handle, budget int64, consumers int) *ChunkWindow[C] {
	return &ChunkWindow[C]{
		h:         h,
		consumers: consumers,
		ring:      make([]windowSlot[C], windowDepth(budget, h.Chunks(), h.ChunkEvents())),
	}
}

// Depth returns the window's admission depth in chunks.
func (w *ChunkWindow[C]) Depth() int { return len(w.ring) }

func (w *ChunkWindow[C]) slot(k int) *windowSlot[C] { return &w.ring[k%len(w.ring)] }

// Checkout returns chunk k's decoded columns for one consumer, decoding
// it if this is the first consumer to arrive. When the chunk cannot be
// served yet, cont is parked and ok is false; the consumer must stop
// and let its continuation be resumed by whoever returns it. woken
// lists continuations this call unparked (a decode it installed), for
// the caller to resume whatever ok says. Each successful Checkout must
// be paired with one Release once the consumer is done with the chunk.
// A failed decode poisons the window; on a poisoned window Checkout
// returns the cause.
func (w *ChunkWindow[C]) Checkout(k int, cont C) (d DecodedChunk, ok bool, woken []C, err error) {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return DecodedChunk{}, false, nil, err
	}
	if k >= w.lo+len(w.ring) {
		w.frontier = append(w.frontier, parkedAt[C]{k, cont})
		w.stats.Parks++
		w.mu.Unlock()
		return DecodedChunk{}, false, nil, nil
	}
	s := w.slot(k)
	if k < w.lo || s.state == slotReleased {
		w.mu.Unlock()
		panic(fmt.Sprintf("trace: chunk %d checked out after its last consumer released it", k))
	}
	switch s.state {
	case slotReady:
		w.stats.Hits++
		d = s.d
		w.mu.Unlock()
		return d, true, nil, nil
	case slotDecoding:
		s.waiters = append(s.waiters, cont)
		w.stats.Parks++
		w.mu.Unlock()
		return DecodedChunk{}, false, nil, nil
	}
	s.state, s.refs = slotDecoding, w.consumers
	w.mu.Unlock()

	d, err = w.h.DecodeChunk(k)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return DecodedChunk{}, false, nil, w.err
	}
	if err != nil {
		err = fmt.Errorf("trace: decoding chunk %d: %w", k, err)
		w.failLocked(err)
		return DecodedChunk{}, false, nil, err
	}
	s.state, s.d = slotReady, d
	w.stats.Decodes++
	w.bytes += d.SizeBytes()
	w.stats.Peak = max(w.stats.Peak, w.bytes)
	woken, s.waiters = s.waiters, nil
	return d, true, woken, nil
}

// Release records that one consumer has passed chunk k. The last
// consumer's release drops the columns and, once every older chunk is
// gone too, slides the admission frontier forward; the continuations
// that parked at the frontier and now fit are returned for the caller
// to resume.
func (w *ChunkWindow[C]) Release(k int) (woken []C) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return nil
	}
	s := w.slot(k)
	if s.state != slotReady || s.refs <= 0 {
		panic(fmt.Sprintf("trace: releasing chunk %d that is not checked out", k))
	}
	if s.refs--; s.refs > 0 {
		return nil
	}
	w.bytes -= s.d.SizeBytes()
	s.state, s.d = slotReleased, DecodedChunk{}
	w.stats.Released++
	if k != w.lo {
		return nil
	}
	for w.lo < w.h.Chunks() && w.slot(w.lo).state == slotReleased {
		*w.slot(w.lo) = windowSlot[C]{}
		w.lo++
	}
	keep := w.frontier[:0]
	for _, p := range w.frontier {
		if p.k < w.lo+len(w.ring) {
			woken = append(woken, p.cont)
		} else {
			keep = append(keep, p)
		}
	}
	clear(w.frontier[len(keep):])
	w.frontier = keep
	return woken
}

// Fail poisons the window with err (the first cause sticks): parked
// continuations are dropped, resident columns freed, and later
// Checkouts return the cause. Safe to call more than once.
func (w *ChunkWindow[C]) Fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failLocked(err)
}

func (w *ChunkWindow[C]) failLocked(err error) {
	if w.err == nil {
		w.err = err
	}
	clear(w.ring)
	w.frontier = nil
	w.bytes = 0
}

// Stats returns a snapshot of the window's counters.
func (w *ChunkWindow[C]) Stats() WindowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.stats
	s.Resident = w.bytes
	s.Parked = len(w.frontier)
	for i := range w.ring {
		s.Parked += len(w.ring[i].waiters)
	}
	return s
}
