// Package sched is the process-wide work-stealing scheduler behind
// sim.RunSuite: one pool of workers executing a single logical queue of
// tasks, where a running task may fan out follow-up tasks into the same
// queue.
//
// The shape it replaced — a per-suite pool of input goroutines, each
// spawning a private pool for its predictor-bank sweep — either
// oversubscribed (inputs × bank goroutines) or idled: once the small
// inputs drained, one large input's sweep was stuck on its private pool
// while every other core sat empty. Here there is exactly one pool. Each worker owns a lock-free Chase-Lev deque; tasks it spawns
// push onto the bottom of its own deque and are popped LIFO (the next
// chunk range of the sweep chain it just advanced is the hottest work it
// has — the predictor tables are still in cache), while idle workers
// steal from the top of a victim's deque FIFO (the oldest task is most
// likely an un-started chain head or profile task — the biggest unit
// available, so a thief amortises its steal). External submissions land
// in a shared injector queue that workers drain when their own deque is
// empty.
//
// Tasks used to be coarse — milliseconds to seconds — and the deques
// were small mutexed slices. The chunk-axis sweep decomposition shrank
// tasks to tens of microseconds, which put queue operations on the
// measured path: push/pop/steal are now entirely lock-free (see deque),
// and the only mutex left guards the sleep path. Workers that find no
// work park on a condition variable behind a Dekker-style handshake: a
// submitter bumps an atomic stamp after publishing its task and wakes
// sleepers only when the atomic parked counter is non-zero; a parking
// worker registers itself, re-checks the stamp, and sleeps only if no
// submit happened since its last full scan. Sequentially consistent
// atomics make the lost-wakeup interleaving impossible.
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
// Submit tasks (from outside or from running tasks), then Wait — or, for
// a long-lived scheduler shared by many independent waits (a server),
// submit through per-request Groups and Close the scheduler only at
// shutdown.
type Scheduler struct {
	deques   []deque
	injector injector

	pending atomic.Int64  // tasks submitted but not yet finished
	stamp   atomic.Uint64 // bumped on every submit; guards the sleep path
	parked  atomic.Int32  // workers currently inside the condvar wait
	quit    atomic.Bool

	// Cheap cumulative counters behind Stats. One uncontended-ish atomic
	// add per event; tasks are tens of microseconds, so the adds are
	// noise even at full steal churn.
	statExec    atomic.Int64 // tasks completed
	statSteals  atomic.Int64 // successful steals
	statSubmits atomic.Int64 // external (injector) submissions
	statParks   atomic.Int64 // condvar sleeps entered

	wg sync.WaitGroup

	mu       sync.Mutex // guards cond and panicked only
	cond     *sync.Cond
	panicked []any
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
		Workers:         len(s.deques),
		Executed:        s.statExec.Load(),
		Steals:          s.statSteals.Load(),
		InjectorSubmits: s.statSubmits.Load(),
		Parks:           s.statParks.Load(),
		Pending:         s.pending.Load(),
	}
}

// Worker is the per-goroutine handle a Task receives. Submitting
// through it pushes onto the worker's own lock-free deque; it must only
// be called from the task currently running on this worker (the deque
// bottom is single-owner).
type Worker struct {
	s        *Scheduler
	id       int
	g        *Group // group of the task currently executing, nil outside one
	finished *Group // group of the task exec just ran, to signal after it
	rnd      uint64 // xorshift state for victim selection
}

// Canceled reports whether the group of the currently-running task has
// been canceled. Tasks outside any group are never canceled. Workloads
// that decompose into many small tasks check this at task boundaries
// and unwind instead of doing real work, which is what makes Group
// cancellation land in bounded time.
func (w *Worker) Canceled() bool { return w.g != nil && w.g.Canceled() }

// New starts a scheduler with n workers (n <= 0 means GOMAXPROCS).
func New(n int) *Scheduler {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{deques: make([]deque, n)}
	s.cond = sync.NewCond(&s.mu)
	for i := range s.deques {
		s.deques[i].init()
	}
	s.wg.Add(n)
	for i := 0; i < n; i++ {
		go s.run(i)
	}
	return s
}

// Workers returns the worker count.
func (s *Scheduler) Workers() int { return len(s.deques) }

// Submit enqueues a task from outside the pool into the shared injector
// queue. Safe from any goroutine. Tasks must not be submitted after
// Wait has returned.
func (s *Scheduler) Submit(t Task) {
	// Pending is incremented before the task is published so Wait can
	// never observe a queued-but-uncounted task.
	s.pending.Add(1)
	s.statSubmits.Add(1)
	s.injector.push(t)
	s.notify()
}

// Submit enqueues a follow-up task onto this worker's own deque, where
// it will be popped LIFO (or stolen FIFO by an idle worker). Must be
// called from the task running on w. A task submitted from inside a
// Group's task joins that group: the fan-out a request's tasks produce
// is tracked by the request's Group without the submitting code knowing
// groups exist.
func (w *Worker) Submit(t Task) {
	if w.g != nil {
		t = w.g.wrap(t)
	}
	s := w.s
	s.pending.Add(1)
	s.deques[w.id].pushBottom(t)
	s.notify()
}

// notify publishes "new work exists" to parking workers. The stamp bump
// must follow the task's publication (it does: both are seq-cst atomics
// in program order) and precede the parked check; see run for the other
// half of the handshake.
func (s *Scheduler) notify() {
	s.stamp.Add(1)
	if s.parked.Load() > 0 {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// Wait blocks until every submitted task — including tasks submitted by
// running tasks — has finished, then stops the workers. Pending cannot
// reach zero while any task runs (the running task's own slot is still
// counted, and its fan-out is registered before it finishes), so zero
// means fully drained. If any task panicked, Wait re-panics with the
// first recovered value after the workers have stopped. The scheduler
// is spent after Wait; build a new one for more work.
func (s *Scheduler) Wait() {
	s.mu.Lock()
	for s.pending.Load() > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	s.Close()
	if len(s.panicked) > 0 {
		panic(s.panicked[0])
	}
}

// Close stops the workers. Unlike Wait it does not require the queue to
// be drained first — workers finish every task they can still find
// (including fan-out submitted while closing) and exit once idle, so
// Close blocks until all queued work has run. It is the shutdown path
// for a long-lived scheduler whose lifetime spans many Group waits;
// Close is idempotent, and task panics captured at scheduler level are
// not re-raised (Groups surface their own). The scheduler is spent
// after Close.
func (s *Scheduler) Close() {
	if s.quit.Swap(true) {
		return
	}
	s.stamp.Add(1) // abort in-flight park attempts
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Scheduler) run(id int) {
	defer s.wg.Done()
	w := &Worker{s: s, id: id, rnd: uint64(id)*2654435761 + 0x9e3779b97f4a7c15}
	d := &s.deques[id]
	for {
		if t := d.popBottom(); t != nil {
			s.exec(w, t)
			continue
		}
		if t := s.injector.pop(); t != nil {
			s.exec(w, t)
			continue
		}
		if t, retry := s.steal(w); t != nil {
			s.exec(w, t)
			continue
		} else if retry {
			// Lost a CAS race: the victim may still hold work, so spin
			// another round rather than risking a park.
			continue
		}
		// Park path. Read the stamp, re-scan everything, and only sleep
		// if no submit happened since the read: a task enqueued before
		// the read is found by the re-scan; one enqueued after it bumps
		// the stamp, and either the parking worker sees the new stamp or
		// the submitter sees the parked counter — seq-cst order forbids
		// both loads missing (the Dekker argument), so no wakeup is lost.
		stamp := s.stamp.Load()
		if s.quit.Load() {
			return
		}
		if t, retry := s.scan(w); t != nil {
			s.exec(w, t)
			continue
		} else if retry {
			continue
		}
		s.mu.Lock()
		s.parked.Add(1)
		if s.stamp.Load() == stamp && !s.quit.Load() {
			s.statParks.Add(1) // one park episode, however many spurious wakes
			for s.stamp.Load() == stamp && !s.quit.Load() {
				s.cond.Wait()
			}
		}
		s.parked.Add(-1)
		s.mu.Unlock()
	}
}

// exec runs one task, always decrementing pending (and waking Wait at
// zero) even if the task panics. Panics are captured and re-raised by
// Wait: a panicking workload is handled by the sim layer's own recover,
// so anything reaching here is a real bug that must not deadlock the
// suite run.
func (s *Scheduler) exec(w *Worker, t Task) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			s.panicked = append(s.panicked, r)
			s.mu.Unlock()
		}
		s.statExec.Add(1)
		if s.pending.Add(-1) == 0 {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		}
		if g := w.finished; g != nil {
			w.finished = nil
			g.done()
		}
	}()
	t(w)
}

// steal takes the oldest task from another worker's deque, scanning
// victims from a per-worker random start so thieves spread out. retry
// reports that some victim was non-empty but a CAS was lost — the
// caller must not park on that evidence.
func (s *Scheduler) steal(w *Worker) (Task, bool) {
	n := len(s.deques)
	if n == 1 {
		return nil, false
	}
	w.rnd ^= w.rnd << 13
	w.rnd ^= w.rnd >> 7
	w.rnd ^= w.rnd << 17
	start := int(w.rnd % uint64(n))
	sawContention := false
	for i := 0; i < n; i++ {
		v := (start + i) % n
		if v == w.id {
			continue
		}
		if t, retry := s.deques[v].stealTop(); t != nil {
			s.statSteals.Add(1)
			return t, false
		} else if retry {
			sawContention = true
		}
	}
	return nil, sawContention
}

// scan checks the worker's own deque, the injector, and every victim —
// the full re-check before parking.
func (s *Scheduler) scan(w *Worker) (Task, bool) {
	if t := s.deques[w.id].popBottom(); t != nil {
		return t, false
	}
	if t := s.injector.pop(); t != nil {
		return t, false
	}
	return s.steal(w)
}

// injector is the shared FIFO for external submissions. It is mutexed —
// external submits are per-input, orders of magnitude rarer than the
// per-chunk-range worker traffic that rides the lock-free deques — and
// pops amortise the head index against the backing slice.
type injector struct {
	mu   sync.Mutex
	q    []Task
	head int
}

func (in *injector) push(t Task) {
	in.mu.Lock()
	in.q = append(in.q, t)
	in.mu.Unlock()
}

func (in *injector) pop() Task {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.head >= len(in.q) {
		return nil
	}
	t := in.q[in.head]
	in.q[in.head] = nil
	in.head++
	if in.head == len(in.q) {
		in.q = in.q[:0]
		in.head = 0
	}
	return t
}
