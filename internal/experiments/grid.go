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
// many rows the ablation has. Callers fold out in (row, input)
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

// canceled reports whether the group last passed to SuiteGroup has been
// canceled.
func (c *Context) canceled() bool {
	g := c.group.Load()
	return g != nil && g.Canceled()
}
