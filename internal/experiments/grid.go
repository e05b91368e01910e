package experiments

import (
	"sort"

	"btr/internal/sched"
	"btr/internal/sim"
)

// runGrid runs task once for every (row, input) pair of the context's
// suite and returns the partials as out[row][input], in suite input
// order. The whole grid is one sched.Group on c.Cfg.Sched, or on a
// private GOMAXPROCS scheduler when the config brings none, so the
// worker count is the scheduler's. Tasks are submitted largest input
// first, so the long replays start before the short ones fill the tail.
// Callers fold out in (row, input) order; every fold is a sum of
// integer counts, so the result does not depend on which worker ran
// which task.
//
// Each task must be independent of the others: it builds its own
// predictor, reads only the input's classes and profiles, and replays
// through its own cursor (InputResult.Replay opens one per call).
//
// Once the group last passed to SuiteGroup is canceled, tasks skip
// their work and runGrid returns sim.ErrCanceled.
//
// runGrid blocks in Group.Wait, so it must never be called from inside
// a scheduler task: a worker waiting on tasks queued behind it can
// deadlock the pool.
func runGrid[P any](c *Context, rows int, task func(row int, in *sim.InputResult) P) ([][]P, error) {
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
		for r := 0; r < rows; r++ {
			g.Submit(func(*sched.Worker) {
				if !c.canceled() {
					out[r][i] = task(r, inputs[i])
				}
			})
		}
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
