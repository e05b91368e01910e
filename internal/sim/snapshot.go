package sim

import (
	"fmt"
	mathbits "math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"btr/internal/bpred"
	"btr/internal/sched"
	"btr/internal/trace"
)

// The checkpointed intra-slot engine. The chunk-chain sweep caps one
// input's parallelism at numBankSlots (34) because predictor state
// rides each chain sequentially. Here the chunk axis of every slot is
// split into SnapshotRanges ranges, and the state handoff is broken by
// checkpointing: a predict-free warmup chain per slot replays the trace
// through UpdateChunk — Predict has no side effects, so the state it
// leaves is bit-identical to a predicting sweep's — and snapshots the
// predictor at every range boundary. Each (slot, range) then becomes an
// independent task that restores its boundary snapshot, sweeps its
// range into a private partial missCell, and the partials fold in
// (slot, range) order exactly as the chained engine folds its chains —
// bit-for-bit identical results (TestSnapshotMatrixMatchesChained), but
// numBankSlots × SnapshotRanges tasks of fan-out instead of 34.
//
// The warmup is overhead (all but the last range is replayed twice:
// once updating, once predicting), so the engine wins only when cores
// outnumber slots; it is off by default.

// snapshotSweeper is what the checkpointed engine needs from a bank
// slot's predictor: the batch sweep protocol, the predict-free batch
// update for warmup chains, and bpred's checkpoint protocol. PAs and
// GAs satisfy it.
type snapshotSweeper interface {
	bpred.ChunkSweeper
	UpdateChunk(pcs, dirs []uint64, n int)
	bpred.Snapshotter
}

// snapshotBounds splits nchunks into at most ranges contiguous ranges
// of near-equal size: range r covers chunks [bounds[r], bounds[r+1]).
// ranges is clamped to nchunks so no range is empty.
func snapshotBounds(nchunks, ranges int) []int {
	if ranges > nchunks {
		ranges = nchunks
	}
	if ranges < 1 {
		ranges = 1
	}
	b := make([]int, ranges+1)
	for r := 0; r <= ranges; r++ {
		b[r] = r * nchunks / ranges
	}
	return b
}

// snapshotSweep is one input's in-flight (slot × range) checkpointed
// sweep. pending counts sweep tasks only (numBankSlots × ranges, preset
// before any submission); warmup tasks gate sweep submission, so a
// poisoned warmup leaves pending above zero and the input unpublished —
// the same drop-via-Dropped semantics as the chained engine. Warmup and
// sweep chains read one chunk window, whose consumer spans cover the
// ranges (see Config.sweepWindow): a range's chunks are decoded once for
// its warmups and its sweeps alike.
type snapshotSweep struct {
	res      *InputResult
	classIdx []uint8
	win      *chunkWindow
	bounds   []int
	slots    []snapSlot
	pending  atomic.Int32
	failed   atomic.Bool

	// Snapshot accounting: count/total are cumulative, live tracks
	// outstanding snapshot bytes (each is freed when its range restores
	// it), peak is live's high-water mark.
	snapCount atomic.Int64
	snapTotal atomic.Int64
	snapLive  atomic.Int64
	snapPeak  atomic.Int64

	out    **InputResult
	errOut *error
}

// snapSlot is one bank slot's share of the grid. warm and warmNext are
// only touched by the slot's warmup chain (tasks ordered by
// resubmission); snaps[r] is written by the warmup before the range-r
// sweep is submitted and consumed (restored, then dropped) by that
// sweep; ranges[r] is touched only by the range-r sweep.
type snapSlot struct {
	warm     snapshotSweeper
	warmNext int // the warmup chain's next chunk
	snaps    [][]byte
	ranges   []snapRange
}

// snapRange is one (slot, range) sweep's resumable state: the task may
// park on the chunk window mid-range and resume where it stopped.
type snapRange struct {
	p    snapshotSweeper // nil until the range starts, and again once done
	next int
	miss missCell
}

func startSnapshotSweep(w *sched.Worker, ranges int, res *InputResult, classIdx []uint8, win *chunkWindow, out **InputResult, errOut *error) {
	ss := &snapshotSweep{
		res:      res,
		classIdx: classIdx,
		win:      win,
		bounds:   snapshotBounds(res.Recorded.Chunks(), ranges),
		out:      out,
		errOut:   errOut,
	}
	ranges = len(ss.bounds) - 1
	ss.slots = make([]snapSlot, numBankSlots)
	for i := range ss.slots {
		ss.slots[i] = snapSlot{
			warm:   bankSlotPredictor(i).(snapshotSweeper),
			snaps:  make([][]byte, ranges),
			ranges: make([]snapRange, ranges),
		}
		for r := range ss.slots[i].ranges {
			ss.slots[i].ranges[r].next = ss.bounds[r]
		}
	}
	ss.pending.Store(int32(numBankSlots * ranges))
	// Range 0 needs no snapshot — a fresh predictor IS the initial state
	// — so its sweeps launch immediately alongside the warmup chains that
	// unlock ranges 1..ranges-1. Sweeps are submitted first: the
	// submitting worker pops its last warmup LIFO and rides warmup chains
	// (they are the critical path), while thieves peel the range-0 sweeps
	// FIFO.
	for i := range ss.slots {
		w.Submit(func(w *sched.Worker) { ss.sweepRange(w, i, 0) })
	}
	if ranges > 1 {
		for i := range ss.slots {
			w.Submit(func(w *sched.Worker) { ss.warmup(w, i, 0) })
		}
	}
}

// guard converts a task panic into the grid's poison, as a paging
// failure does: the cause is recorded once, sibling tasks bail out on
// their next look at failed, pending never reaches zero, and the input
// is reported via SuiteResult.Dropped.
func (ss *snapshotSweep) guard() {
	if r := recover(); r != nil {
		ss.poison(recoveredErr("snapshot sweep failed", r))
	}
}

// poison records the grid's first failure cause and fails the window,
// dropping parked chains and freeing its decoded columns (the grid never
// publishes, so nothing else would).
func (ss *snapshotSweep) poison(err error) {
	if ss.failed.CompareAndSwap(false, true) {
		*ss.errOut = err
		ss.win.Fail(err)
	}
}

// bail reports whether the task should unwind without doing work:
// the grid is already poisoned, or its group has been canceled (which
// poisons it with ErrCanceled).
func (ss *snapshotSweep) bail(w *sched.Worker) bool {
	if ss.failed.Load() {
		return true
	}
	if w.Canceled() {
		ss.poison(ErrCanceled)
		return true
	}
	return false
}

// warmup advances slot's warmup predictor over range r update-only,
// checkpoints the state — which is exactly the chained sweep's state at
// the start of range r+1 — and releases that range's sweep to run.
// The chain covers ranges 0..ranges-2: the final range's end state is
// never needed.
func (ss *snapshotSweep) warmup(w *sched.Worker, slot, r int) {
	defer ss.guard()
	if ss.bail(w) {
		return
	}
	s := &ss.slots[slot]
	for ; s.warmNext < ss.bounds[r+1]; s.warmNext++ {
		d, ok, err := checkout(w, ss.win, s.warmNext, func(w *sched.Worker) { ss.warmup(w, slot, r) })
		if err != nil {
			ss.poison(fmt.Errorf("snapshot sweep failed: %w", err))
		}
		if !ok {
			return
		}
		s.warm.UpdateChunk(d.PCs, d.Dirs, d.N)
		release(w, ss.win, s.warmNext)
	}
	snap := make([]byte, s.warm.SnapshotBytes())
	s.warm.SnapshotTo(snap)
	ss.accountSnapshot(int64(len(snap)))
	next := r + 1
	s.snaps[next] = snap
	w.Submit(func(w *sched.Worker) { ss.sweepRange(w, slot, next) })
	if next < len(ss.bounds)-2 {
		w.Submit(func(w *sched.Worker) { ss.warmup(w, slot, next) })
	}
}

func (ss *snapshotSweep) accountSnapshot(n int64) {
	ss.snapCount.Add(1)
	ss.snapTotal.Add(n)
	live := ss.snapLive.Add(n)
	for {
		peak := ss.snapPeak.Load()
		if live <= peak || ss.snapPeak.CompareAndSwap(peak, live) {
			return
		}
	}
}

// sweepRange runs one (slot, range) task: restore the range's boundary
// snapshot into a fresh predictor (range 0 uses the fresh predictor
// as-is), sweep the range's chunks into the range's private partial,
// and — as the last task of the whole grid — fold and publish.
func (ss *snapshotSweep) sweepRange(w *sched.Worker, slot, r int) {
	defer ss.guard()
	if ss.bail(w) {
		return
	}
	s := &ss.slots[slot]
	sr := &s.ranges[r]
	if sr.p == nil {
		sr.p = bankSlotPredictor(slot).(snapshotSweeper)
		if r > 0 {
			snap := s.snaps[r]
			sr.p.RestoreFrom(snap)
			s.snaps[r] = nil // the snapshot is dead once restored
			ss.snapLive.Add(-int64(len(snap)))
		}
	}
	var wrong [(trace.DefaultChunkEvents + 63) / 64]uint64
	scratch := wrong[:]
	for ; sr.next < ss.bounds[r+1]; sr.next++ {
		d, ok, err := checkout(w, ss.win, sr.next, func(w *sched.Worker) { ss.sweepRange(w, slot, r) })
		if err != nil {
			ss.poison(fmt.Errorf("snapshot sweep failed: %w", err))
		}
		if !ok {
			return
		}
		if words := (d.N + 63) / 64; words > len(scratch) {
			scratch = make([]uint64, words)
		}
		sweepDecodedChunk(sr.p, &d, ss.classIdx[d.Base:d.Base+int64(d.N)], &sr.miss, scratch)
		release(w, ss.win, sr.next)
	}
	sr.p = nil
	if ss.pending.Add(-1) == 0 {
		ss.fold()
		finalizeMem(ss.res, ss.win)
		ss.res.Mem.SnapshotCount = ss.snapCount.Load()
		ss.res.Mem.SnapshotBytes = ss.snapTotal.Load()
		ss.res.Mem.SnapshotPeak = ss.snapPeak.Load()
		*ss.out = ss.res
	}
}

// fold reduces the per-range partials into flat per-slot cells in
// deterministic (slot, range) order — int64 sums, so any order would be
// bit-identical anyway — and lands them in res.Miss.
func (ss *snapshotSweep) fold() {
	flat := make([]missCell, numBankSlots)
	for i := range ss.slots {
		for r := range ss.slots[i].ranges {
			addCell(&flat[i], &ss.slots[i].ranges[r].miss)
		}
	}
	foldMisses(ss.res, flat)
}

// startSweep launches an input's bank sweep on the engine Config
// selects: the checkpointed (slot × range) grid when SnapshotRanges
// asks for more than one range and the recording has chunks to split,
// otherwise the chained (slot × chunk-range) grid. win must come from
// cfg.sweepWindow, which declares the same engine's consumers.
func startSweep(w *sched.Worker, cfg Config, res *InputResult, classIdx []uint8, win *chunkWindow, out **InputResult, errOut *error) {
	if ranges := cfg.snapshotRanges(res.Recorded.Chunks()); ranges > 1 {
		startSnapshotSweep(w, ranges, res, classIdx, win, out, errOut)
		return
	}
	startChunkSweep(w, cfg, res, classIdx, win, out, errOut)
}

// SnapshotPredictor is the contract RunPredictorSnapshot needs from a
// predictor: bpred's base and checkpoint protocols plus both batch
// loops. PAs and GAs satisfy it.
type SnapshotPredictor interface {
	bpred.Predictor
	bpred.Snapshotter
	bpred.ChunkSweeper
	UpdateChunk(pcs, dirs []uint64, n int)
}

// SnapshotRunStats reports a RunPredictorSnapshot run's shape.
type SnapshotRunStats struct {
	// Ranges is the number of parallel ranges actually used (the
	// requested count clamped to the chunk count).
	Ranges int
	// Snapshots and SnapshotBytes count the checkpoints taken.
	Snapshots     int64
	SnapshotBytes int64
}

// RunPredictorSnapshot replays a recorded trace through one predictor
// with checkpointed range parallelism — the single-predictor analogue
// of Config.SnapshotRanges, used by brsim. mk builds a fresh predictor
// (called once for the warmup chain and once per worker); the trace is
// split into ranges ranges, a sequential update-only warmup emits a
// snapshot at every boundary, and workers (0 = GOMAXPROCS) replay the
// ranges concurrently from their snapshots, folding per-range miss
// counts in range order. The result is bit-identical to bpred.Run over
// the same handle. Paging errors panic, as they do in Handle replays.
func RunPredictorSnapshot(h *trace.Handle, mk func() SnapshotPredictor, ranges, workers int) (bpred.Result, SnapshotRunStats) {
	bounds := snapshotBounds(h.Chunks(), ranges)
	nr := len(bounds) - 1
	warm := mk()
	res := bpred.Result{Name: warm.Name(), Events: h.Events()}
	stats := SnapshotRunStats{Ranges: nr}
	if h.Chunks() == 0 {
		return res, stats
	}
	// Sequential warmup: snapshot the initial state too, so every range
	// — including range 0, whichever worker claims it — restores rather
	// than relying on construction-order freshness.
	snaps := make([][]byte, nr)
	takeSnap := func(r int) {
		snap := make([]byte, warm.SnapshotBytes())
		warm.SnapshotTo(snap)
		snaps[r] = snap
		stats.Snapshots++
		stats.SnapshotBytes += int64(len(snap))
	}
	takeSnap(0)
	var pcs, dirs []uint64
	for r := 0; r+1 < nr; r++ {
		for k := bounds[r]; k < bounds[r+1]; k++ {
			d, err := h.DecodeChunkInto(k, pcs, dirs)
			if err != nil {
				panic(fmt.Sprintf("trace: paging chunk %d: %v", k, err))
			}
			pcs, dirs = d.PCs, d.Dirs
			warm.UpdateChunk(d.PCs, d.Dirs, d.N)
		}
		takeSnap(r + 1)
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nr {
		workers = nr
	}
	missByRange := make([]int64, nr)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := mk()
			var pcs, dirs, wrong []uint64
			for {
				r := int(next.Add(1)) - 1
				if r >= nr {
					return
				}
				p.RestoreFrom(snaps[r])
				var miss int64
				for k := bounds[r]; k < bounds[r+1]; k++ {
					d, err := h.DecodeChunkInto(k, pcs, dirs)
					if err != nil {
						panic(fmt.Sprintf("trace: paging chunk %d: %v", k, err))
					}
					pcs, dirs = d.PCs, d.Dirs
					words := (d.N + 63) / 64
					if len(wrong) < words {
						wrong = make([]uint64, words)
					}
					for w := range wrong[:words] {
						wrong[w] = 0
					}
					p.SweepChunk(d.PCs, d.Dirs, d.N, wrong[:words])
					for _, bits := range wrong[:words] {
						miss += int64(mathbits.OnesCount64(bits))
					}
				}
				missByRange[r] = miss
			}
		}()
	}
	wg.Wait()
	for _, m := range missByRange {
		res.Misses += m
	}
	return res, stats
}
