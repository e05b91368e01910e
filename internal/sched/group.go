package sched

import (
	"sync"
	"sync/atomic"
)

// Group tracks the completion of one related set of tasks — typically
// one request's task grid — on a scheduler whose lifetime spans many
// such sets. A Group waits only for its own tasks, so concurrent
// requests interleave their grids over one worker pool and each caller
// still gets a private barrier.
//
// Membership is sticky through fan-out: a task submitted via
// Group.Submit runs with the worker's group pointer set, so any
// follow-up it pushes through Worker.Submit joins the same group
// without the submitting code knowing groups exist. That is what
// lets sim's sweep grids — which fan out thousands of chunk-range
// continuations — ride a shared server scheduler unchanged.
//
// A panic escaping a group's task is captured in the group (not the
// scheduler) and re-raised by the group's own Wait: one tenant's bug
// surfaces on that tenant's waiter instead of poisoning the shared
// pool.
type Group struct {
	s        *Scheduler
	pending  atomic.Int64
	canceled atomic.Bool

	mu       sync.Mutex // guards cond and panicked
	cond     *sync.Cond
	panicked []any
}

// NewGroup returns an empty group on s. A group is reusable in the weak
// sense that Wait returns whenever the count is zero, but the intended
// shape is submit-all-then-Wait per request.
func (s *Scheduler) NewGroup() *Group {
	g := &Group{s: s}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Scheduler returns the scheduler the group runs on.
func (g *Group) Scheduler() *Scheduler { return g.s }

// Cancel flags the group as canceled. The scheduler keeps running every
// already-queued member to completion — tasks are cheap and the count
// must drain for Wait to return — but cooperative workloads observe the
// flag (Worker.Canceled) at their task boundaries and unwind instead of
// doing real work. Idempotent and safe from any goroutine, including
// concurrently with Wait.
func (g *Group) Cancel() { g.canceled.Store(true) }

// Canceled reports whether Cancel was called.
func (g *Group) Canceled() bool { return g.canceled.Load() }

// Submit enqueues a task into the scheduler's injector queue as a
// member of g. Safe from any goroutine.
func (g *Group) Submit(t Task) {
	g.s.statSubmits.Add(1)
	g.s.submit(&g.s.injector, entry{t, g})
}

// run runs one member task on w, capturing a panic for Wait.
func (g *Group) run(w *Worker, t Task) {
	defer func() {
		if r := recover(); r != nil {
			g.mu.Lock()
			g.panicked = append(g.panicked, r)
			g.mu.Unlock()
		}
	}()
	t(w)
}

// done counts one member task finished and signals the barrier on the
// last. exec calls it after the scheduler has counted the task done
// too, so a returned Wait never sees the group's tasks still pending
// in Stats. The decrement comes after any fan-out the task performed
// (Worker.Submit runs inside the task), so the count can only reach
// zero when the group's whole task tree has finished.
func (g *Group) done() {
	if g.pending.Add(-1) == 0 {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// Wait blocks until every task submitted to the group — including fan-
// out submitted by running group tasks — has finished. If any group
// task panicked, Wait re-panics with the first recovered value (and
// clears the record, so a recovered caller can keep using the
// scheduler). The scheduler itself keeps running; other groups are
// unaffected.
func (g *Group) Wait() {
	g.mu.Lock()
	for g.pending.Load() > 0 {
		g.cond.Wait()
	}
	p := g.panicked
	g.panicked = nil
	g.mu.Unlock()
	if len(p) > 0 {
		panic(p[0])
	}
}
