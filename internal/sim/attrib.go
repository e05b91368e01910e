package sim

import (
	"fmt"
	"sync/atomic"

	"btr/internal/core"
	"btr/internal/sched"
	"btr/internal/stats"
	"btr/internal/workload"
)

// attribGrid is the scheduled engine's parallel attribution pre-pass:
// the per-event class column, Exec counts and Figure 15 hard distances
// that attributeSequential derives in one replay are instead computed
// per chunk range, in parallel. With a zero decoded budget every chunk
// it decodes is adopted by the chunk window the bank sweep reads, so the
// sweep decodes nothing; under a budget the window cannot hold the
// whole recording ahead of the sweep, so the pre-pass decodes into
// per-task scratch and the window decodes again. Class resolution and
// Exec attribution are embarrassingly parallel — each range writes a
// disjoint classIdx segment and its own counters — while the hard
// distances, whose chain crosses range boundaries, are stitched
// sequentially from per-range (first, last) hard positions once every
// range has finished. The stitch is exact, not approximate: within-range
// distances use the same raw positions the sequential pass subtracts,
// and each boundary distance is firstHard(range r) − lastHard(range
// r−1), so the result is bit-identical (TestScheduledMatchesLegacy).
//
// The last range to finish performs the stitch, publishes the profile
// cache entry, and launches the bank sweep on the window.
type attribGrid struct {
	cfg      Config
	spec     workload.Spec
	res      *InputResult
	classIdx []uint8
	win      *chunkWindow
	retain   bool // adopt decodes into win (zero decoded budget)
	stride   int  // chunks per range
	parts    []attribPart

	remaining atomic.Int32
	failed    atomic.Bool
	out       **InputResult
	errOut    *error
}

// attribPart is one range's private attribution state. firstHard and
// lastHard are raw global event indices (-1 = no hard branch in range);
// hist holds the range-internal distances.
type attribPart struct {
	exec                JointCounts
	hist                *stats.Histogram
	firstHard, lastHard int64
}

// newAttribGrid sizes the grid at roughly four ranges per worker —
// coarse enough that per-range state (a JointCounts and a histogram) is
// noise, fine enough to steal-balance the pre-pass across cores.
func newAttribGrid(cfg Config, spec workload.Spec, res *InputResult, workers int, out **InputResult, errOut *error) *attribGrid {
	nchunks := res.Recorded.Chunks()
	stride := 1
	if target := 4 * workers; target > 0 && nchunks > target {
		stride = (nchunks + target - 1) / target
	}
	ranges := 0
	if nchunks > 0 {
		ranges = (nchunks + stride - 1) / stride
	}
	g := &attribGrid{
		cfg:      cfg,
		spec:     spec,
		res:      res,
		classIdx: make([]uint8, res.Recorded.Events()),
		win:      cfg.sweepWindow(res.Recorded),
		retain:   cfg.DecodedBudget == 0,
		stride:   stride,
		parts:    make([]attribPart, ranges),
		out:      out,
		errOut:   errOut,
	}
	g.remaining.Store(int32(ranges))
	return g
}

// launch submits every range as an independent task; an empty recording
// skips straight to the (empty) stitch and sweep.
func (g *attribGrid) launch(w *sched.Worker) {
	if len(g.parts) == 0 {
		g.finish(w)
		return
	}
	for r := range g.parts {
		r := r
		w.Submit(func(w *sched.Worker) { g.runPart(w, r) })
	}
}

// runPart attributes one chunk range. A paging failure (a corrupt
// spill, say) or a panic poisons the grid: the cause is recorded once, the
// remaining counter never reaches zero, the sweep never launches, and
// the input is reported via SuiteResult.Dropped. Group cancellation
// poisons the same way with ErrCanceled.
func (g *attribGrid) runPart(w *sched.Worker, r int) {
	defer func() {
		if rec := recover(); rec != nil {
			g.poison(recoveredErr("attribution failed", rec))
		}
	}()
	if g.failed.Load() {
		return
	}
	if w.Canceled() {
		g.poison(ErrCanceled)
		return
	}
	p := &g.parts[r]
	p.hist = stats.NewHistogram(len(g.res.HardDistances.Bins))
	p.firstHard, p.lastHard = -1, -1
	h := g.res.Recorded
	end := (r + 1) * g.stride
	if end > h.Chunks() || end < 0 {
		end = h.Chunks()
	}
	// Scratch columns for the non-retaining case. dirs is never replaced
	// by a returned bitmap: a resident chunk's Dirs alias the recording.
	var pcs, dirs []uint64
	if !g.retain {
		dirs = make([]uint64, (h.ChunkEvents()+63)/64)
	}
	for k := r * g.stride; k < end; k++ {
		d, err := h.DecodeChunkInto(k, pcs, dirs)
		if err != nil {
			g.poison(fmt.Errorf("attribution failed: trace: decoding chunk %d: %w", k, err))
			return
		}
		for i := 0; i < d.N; i++ {
			ci := classOf(g.res.Table, d.PCs[i])
			pos := d.Base + int64(i)
			g.classIdx[pos] = ci
			p.exec[ci/core.NumClasses][ci%core.NumClasses]++
			if ci == hardIdx {
				if p.lastHard >= 0 {
					p.hist.Add(int(pos - p.lastHard))
				} else {
					p.firstHard = pos
				}
				p.lastHard = pos
			}
		}
		if g.retain {
			g.win.Adopt(k, d)
		} else {
			pcs = d.PCs
		}
	}
	if g.remaining.Add(-1) == 0 {
		g.finish(w)
	}
}

// poison records the grid's first failure cause and fails the window,
// freeing any adopted columns: the sweep never launches.
func (g *attribGrid) poison(err error) {
	if g.failed.CompareAndSwap(false, true) {
		*g.errOut = err
		g.win.Fail(err)
	}
}

// finish stitches the ranges in order (boundary hard distances, Exec
// sums, histogram merge), publishes the profile-cache entry, and hands
// the window to the bank sweep.
func (g *attribGrid) finish(w *sched.Worker) {
	prevLast := int64(-1)
	for r := range g.parts {
		p := &g.parts[r]
		g.res.Exec.Add(&p.exec)
		for i, c := range p.hist.Bins {
			g.res.HardDistances.Bins[i] += c
		}
		if p.firstHard >= 0 && prevLast >= 0 {
			g.res.HardDistances.Add(int(p.firstHard - prevLast))
		}
		if p.lastHard >= 0 {
			prevLast = p.lastHard
		}
	}
	if g.cfg.Profiles != nil {
		g.cfg.Profiles.put(g.cfg.cacheKey(g.spec), g.cfg.window(), g.res, g.classIdx)
	}
	startChunkSweep(w, g.res, g.classIdx, g.win, g.out, g.errOut)
}
