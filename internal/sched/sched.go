// Package sched is the process-wide work-stealing scheduler behind
// sim.RunSuite: one pool of workers executing a single logical queue of
// tasks, where a running task may fan out follow-up tasks into the same
// queue. Every task from outside the pool enters through a Group, which
// tracks, cancels and awaits one related set of tasks.
//
// The shape it replaced — a per-suite pool of input goroutines, each
// spawning a private pool for its predictor-bank sweep — either
// oversubscribed (inputs × bank goroutines) or idled: once the small
// inputs drained, one large input's sweep was stuck on its private pool
// while every other core sat empty. Here there is exactly one pool.
//
// Each worker owns a mutexed queue. Tasks it spawns are pushed onto its
// own queue and popped newest first (the next chunk of the sweep chain
// it just advanced is the hottest work it has — the predictor tables
// are still in cache), while idle workers steal the oldest task of a
// victim's queue (most likely an un-started chain head or profile task —
// the biggest unit available, so a thief amortises its steal). External
// submissions land in a shared FIFO injector that workers drain when
// their own queue is empty. Tasks are tens of microseconds, so a few
// uncontended lock operations per task are noise; each queue has its
// own lock, because one lock over all of them serialises every worker's
// push and pop and measurably slowed the streamed suite.
//
// A worker that finds no work adds itself to the idle count, re-scans
// every queue while holding the park lock, and only then waits on the
// condition variable. A submitter publishes its task, then takes the
// park lock to signal if the idle count is non-zero. If the submitter's
// load of the count misses the worker's registration, the registration
// came later, so the worker's re-scan comes after the task's
// publication and finds it. If the load sees it, the submitter signals
// under the park lock, which it holds either before the worker's locked
// re-scan (which then finds the task) or once the worker waits (and the
// signal wakes a waiter, which re-scans). Either way no wakeup is lost.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is one schedulable unit of work. It runs on one of the
// scheduler's workers and may submit follow-up tasks via w.
type Task func(w *Worker)

// Scheduler owns a fixed set of workers draining one logical queue.
// Submit tasks through per-request Groups, wait on each Group, and
// Close the scheduler only at shutdown.
type Scheduler struct {
	queues   []queue // one per worker
	injector queue   // external submissions, FIFO

	pending atomic.Int64 // tasks submitted but not yet finished
	idle    atomic.Int32 // workers between registering idle and finding work

	// Cheap cumulative counters behind Stats.
	statExec    atomic.Int64 // tasks completed
	statSteals  atomic.Int64 // successful steals
	statSubmits atomic.Int64 // external (injector) submissions
	statParks   atomic.Int64 // condvar sleeps entered

	wg sync.WaitGroup

	mu   sync.Mutex // the park lock: guards cond and quit
	cond *sync.Cond
	quit bool
}

// Stats is a point-in-time snapshot of the scheduler's counters: the
// cumulative task/steal/submit/park tallies plus the instantaneous
// queue depth (tasks submitted but not yet finished) and worker count.
// It is what a /metrics endpoint or a CLI summary line reports.
type Stats struct {
	Workers         int   `json:"workers"`
	Executed        int64 `json:"executed"`
	Steals          int64 `json:"steals"`
	InjectorSubmits int64 `json:"injector_submits"`
	Parks           int64 `json:"parks"`
	Pending         int64 `json:"pending"`
}

// Stats returns a snapshot of the counters. Safe from any goroutine;
// the fields are read independently, so the snapshot is approximate
// under concurrent traffic (each counter is exact, their combination is
// not a consistent cut).
func (s *Scheduler) Stats() Stats {
	return Stats{
		Workers:         len(s.queues),
		Executed:        s.statExec.Load(),
		Steals:          s.statSteals.Load(),
		InjectorSubmits: s.statSubmits.Load(),
		Parks:           s.statParks.Load(),
		Pending:         s.pending.Load(),
	}
}

// Worker is the per-goroutine handle a Task receives. Submitting
// through it pushes onto the worker's own queue; it must only be called
// from the task currently running on this worker.
type Worker struct {
	s  *Scheduler
	id int
	g  *Group // group of the task currently executing
}

// Canceled reports whether the group of the currently-running task has
// been canceled. Workloads that decompose into many small tasks check
// this at task boundaries and unwind instead of doing real work, which
// is what makes Group cancellation land in bounded time.
func (w *Worker) Canceled() bool { return w.g.Canceled() }

// New starts a scheduler with n workers (n <= 0 means GOMAXPROCS).
func New(n int) *Scheduler {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{queues: make([]queue, n)}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(n)
	for i := 0; i < n; i++ {
		go s.run(&Worker{s: s, id: i})
	}
	return s
}

// Workers returns the worker count.
func (s *Scheduler) Workers() int { return len(s.queues) }

// Submit enqueues a follow-up task onto this worker's own queue, where
// it will be popped newest first (or stolen oldest first by an idle
// worker). Must be called from the task running on w. The task joins
// the running task's group: the fan-out a request's tasks produce is
// tracked by the request's Group without the submitting code knowing
// groups exist.
func (w *Worker) Submit(t Task) {
	w.s.submit(&w.s.queues[w.id], entry{t, w.g})
}

// submit counts e as pending in its group and the scheduler before
// publishing it (so no Wait or Stats reader can see a queued but
// uncounted task), then wakes one parked worker if any is idle.
func (s *Scheduler) submit(q *queue, e entry) {
	e.g.pending.Add(1)
	s.pending.Add(1)
	q.push(e)
	if s.idle.Load() > 0 {
		s.mu.Lock()
		s.cond.Signal()
		s.mu.Unlock()
	}
}

// Close stops the workers. Workers finish every task they can still
// find (including fan-out submitted while closing) and exit once idle,
// so Close blocks until all queued work has run. It is the shutdown
// path for a long-lived scheduler whose lifetime spans many Group
// waits. Close is idempotent; the scheduler is spent after it.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.quit = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Scheduler) run(w *Worker) {
	defer s.wg.Done()
	for {
		e := s.find(w.id)
		if e.t == nil {
			// Park path; see the package comment for why registering
			// before the locked re-scan loses no wakeup.
			s.idle.Add(1)
			s.mu.Lock()
			e = s.find(w.id)
			if e.t == nil && !s.quit {
				s.statParks.Add(1) // one park episode, however many wakes
			}
			for e.t == nil && !s.quit {
				s.cond.Wait()
				e = s.find(w.id)
			}
			s.mu.Unlock()
			s.idle.Add(-1)
			if e.t == nil {
				return // closing, and no work left anywhere
			}
		}
		s.exec(w, e)
	}
}

// exec runs one task as a member of its group. The scheduler counts
// the task done before the group does, so a returned Group.Wait never
// sees the group's tasks still pending in Stats.
func (s *Scheduler) exec(w *Worker, e entry) {
	w.g = e.g
	e.g.run(w, e.t)
	s.statExec.Add(1)
	s.pending.Add(-1)
	e.g.done()
}

// find returns the next task for worker id — its own newest, else the
// oldest external submission, else the oldest task of another worker,
// scanning victims round-robin from id+1 — or an empty entry.
func (s *Scheduler) find(id int) entry {
	if e := s.queues[id].popNewest(); e.t != nil {
		return e
	}
	if e := s.injector.popOldest(); e.t != nil {
		return e
	}
	n := len(s.queues)
	for i := 1; i < n; i++ {
		if e := s.queues[(id+i)%n].popOldest(); e.t != nil {
			s.statSteals.Add(1)
			return e
		}
	}
	return entry{}
}

// entry is one queued task and the group it belongs to.
type entry struct {
	t Task
	g *Group
}

// queue is a mutexed slice of entries, live in q[head:]. A worker's own
// queue is pushed and popped at the tail by its owner and stolen from
// at the head; the injector is pushed at the tail and popped at the
// head. Taken slots are cleared so finished closures (and whatever they
// capture — for sweep tasks, an input's decoded chunk window) are not
// kept reachable. The padding keeps two workers' queues off one cache
// line pair, which BenchmarkSchedChains reads as about a quarter fewer
// ns/task at two workers.
type queue struct {
	mu   sync.Mutex
	q    []entry
	head int
	_    [88]byte
}

func (q *queue) push(e entry) {
	q.mu.Lock()
	if q.head > 0 && len(q.q) == cap(q.q) {
		// Reuse the stolen-from front before append grows the slice.
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:])
		q.q, q.head = q.q[:n], 0
	}
	q.q = append(q.q, e)
	q.mu.Unlock()
}

func (q *queue) popNewest() entry {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.q) - 1
	if n < q.head {
		return entry{}
	}
	e := q.q[n]
	q.q[n] = entry{}
	q.q = q.q[:n]
	if n == q.head {
		q.q, q.head = q.q[:0], 0
	}
	return e
}

func (q *queue) popOldest() entry {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.q) {
		return entry{}
	}
	e := q.q[q.head]
	q.q[q.head] = entry{}
	q.head++
	if q.head == len(q.q) {
		q.q, q.head = q.q[:0], 0
	}
	return e
}
