package experiments

import (
	"sort"

	"btr/internal/sched"
	"btr/internal/sim"
)

// gridRow is one row of a grid ablation over one input: a column kernel
// fed the input's decoded chunks in stream order (pcs and the direction
// bitmap dirs, event i's outcome in bit i&63 of word i>>6, hold n
// events), then asked for its partial once the stream ends and told to
// release its predictor's tables for the next input's rows.
type gridRow[P any] interface {
	chunk(pcs, dirs []uint64, n int)
	result() P
	release()
}

// runGrid runs an ablation's rows over every input of the context's
// suite and returns the partials as out[row][input], in suite input
// order. start builds row r's kernel for an input.
//
// The grid is one sched.Group on c.Cfg.Sched, or on a private
// GOMAXPROCS scheduler when the config brings none, with one task per
// input, largest first, so the long inputs start before the short ones
// fill the tail. A task reads its input's recording once, through its
// own Handle.ChunkReader, and runs every row's kernel on each chunk
// before reading the next: one decode (or page-in) per chunk however
// many rows the ablation has. Without a recording (Config.NoRecord) each
// row regenerates the input on its own. Callers fold out in (row, input)
// order; every fold is a sum of integer counts, so the result does not
// depend on which worker ran which input.
//
// Kernels must be independent of one another: each builds its own
// predictor and reads only the input's shared, read-only classes,
// profiles and class table. A kernel is released after its result is
// taken, so the next input's rows reuse its tables.
//
// Once the group last passed to SuiteGroup is canceled, tasks skip
// their work and runGrid returns sim.ErrCanceled.
//
// runGrid blocks in Group.Wait, so it must never be called from inside
// a scheduler task: a worker waiting on tasks queued behind it can
// deadlock the pool.
func runGrid[P any](c *Context, rows int, start func(row int, in *sim.InputResult) gridRow[P]) ([][]P, error) {
	if c.canceled() {
		return nil, sim.ErrCanceled
	}
	inputs := c.Suite().Inputs
	out := make([][]P, rows)
	for r := range out {
		out[r] = make([]P, len(inputs))
	}
	s := c.Cfg.Sched
	if s == nil {
		s = sched.New(0)
		defer s.Close()
	}
	order := make([]int, len(inputs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return inputs[order[a]].Events > inputs[order[b]].Events })
	g := s.NewGroup()
	for _, i := range order {
		g.Submit(func(*sched.Worker) {
			if c.canceled() {
				return
			}
			in := inputs[i]
			kernels := make([]gridRow[P], rows)
			for r := range kernels {
				kernels[r] = start(r, in)
			}
			if in.Recorded != nil {
				rd := in.Recorded.ChunkReader()
				for !c.canceled() {
					pcs, dirs, n, ok := rd.NextChunk()
					if !ok {
						break
					}
					for _, k := range kernels {
						k.chunk(pcs, dirs, n)
					}
				}
			} else {
				for _, k := range kernels {
					regenerate(in, c.Cfg.Scale, k)
				}
			}
			for r, k := range kernels {
				out[r][i] = k.result()
				k.release()
			}
		})
	}
	g.Wait()
	if c.canceled() {
		return nil, sim.ErrCanceled
	}
	return out, nil
}

// regenChunkEvents is the chunk size regenerate batches events into.
const regenChunkEvents = 1 << 12

// regenerate re-runs the input's generator and feeds its events to k in
// chunks, for inputs without a recording.
func regenerate[P any](in *sim.InputResult, scale float64, k gridRow[P]) {
	b := &chunkBatcher{
		pcs:   make([]uint64, regenChunkEvents),
		dirs:  make([]uint64, regenChunkEvents/64),
		flush: k.chunk,
	}
	in.Replay(b, scale)
	b.emit()
}

// chunkBatcher is a trace.Sink that collects events into chunk columns
// and hands each full chunk to flush.
type chunkBatcher struct {
	pcs, dirs []uint64
	n         int
	flush     func(pcs, dirs []uint64, n int)
}

func (b *chunkBatcher) Branch(pc uint64, taken bool) {
	b.pcs[b.n] = pc
	if taken {
		b.dirs[b.n>>6] |= 1 << (uint(b.n) & 63)
	}
	if b.n++; b.n == len(b.pcs) {
		b.emit()
	}
}

// emit flushes the collected events, if any, and starts a new chunk.
func (b *chunkBatcher) emit() {
	if b.n > 0 {
		b.flush(b.pcs, b.dirs, b.n)
	}
	clear(b.dirs)
	b.n = 0
}

// canceled reports whether the group last passed to SuiteGroup has been
// canceled.
func (c *Context) canceled() bool {
	g := c.group.Load()
	return g != nil && g.Canceled()
}
