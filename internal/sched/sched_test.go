package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunsEverySubmittedTask(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		s := New(workers)
		g := s.NewGroup()
		var ran atomic.Int64
		const n = 100
		for i := 0; i < n; i++ {
			g.Submit(func(*Worker) { ran.Add(1) })
		}
		g.Wait()
		s.Close()
		if got := ran.Load(); got != n {
			t.Fatalf("workers=%d: ran %d of %d tasks", workers, got, n)
		}
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	s := New(0)
	defer s.Close()
	if s.Workers() < 1 {
		t.Fatalf("Workers() = %d", s.Workers())
	}
	g := s.NewGroup()
	g.Submit(func(*Worker) {})
	g.Wait()
}

// TestFanOut pins the scheduler's central contract: tasks submitted by
// running tasks (recursively) all execute before the group's Wait
// returns.
func TestFanOut(t *testing.T) {
	s := New(4)
	defer s.Close()
	var ran atomic.Int64
	var spawn func(w *Worker, depth int)
	spawn = func(w *Worker, depth int) {
		ran.Add(1)
		if depth == 0 {
			return
		}
		for i := 0; i < 3; i++ {
			d := depth - 1
			w.Submit(func(w *Worker) { spawn(w, d) })
		}
	}
	g := s.NewGroup()
	g.Submit(func(w *Worker) { spawn(w, 4) })
	g.Wait()
	// 1 + 3 + 9 + 27 + 81 tasks.
	if got := ran.Load(); got != 121 {
		t.Fatalf("ran %d tasks, want 121", got)
	}
}

// TestStealing proves fan-out lands on other workers: four tasks spawned
// by one worker block on a shared barrier that only releases when all
// four are running simultaneously, which requires four distinct workers.
func TestStealing(t *testing.T) {
	const n = 4
	s := New(n)
	defer s.Close()
	var wg sync.WaitGroup
	wg.Add(n)
	g := s.NewGroup()
	g.Submit(func(w *Worker) {
		for i := 0; i < n; i++ {
			w.Submit(func(*Worker) {
				wg.Done()
				wg.Wait() // deadlocks (test timeout) unless all n run concurrently
			})
		}
	})
	g.Wait()
}

func TestWaitWithNoTasks(t *testing.T) {
	s := New(3)
	s.NewGroup().Wait()
	s.Close()
}

// TestPanicPropagates: a panic in a submitted task re-raises on Wait
// after the other submitted task has still run.
func TestPanicPropagates(t *testing.T) {
	s := New(2)
	defer s.Close()
	var ran atomic.Int64
	g := s.NewGroup()
	g.Submit(func(*Worker) { panic("task bug") })
	g.Submit(func(*Worker) { ran.Add(1) })
	defer func() {
		if r := recover(); r != "task bug" {
			t.Fatalf("Wait recovered %v, want the task's panic", r)
		}
		if ran.Load() != 1 {
			t.Fatal("non-panicking task must still run")
		}
	}()
	g.Wait()
	t.Fatal("Wait must re-panic")
}

func TestManyConcurrentSubmitters(t *testing.T) {
	s := New(3)
	defer s.Close()
	g := s.NewGroup()
	var ran atomic.Int64
	var submitters sync.WaitGroup
	for i := 0; i < 8; i++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for i := 0; i < 50; i++ {
				g.Submit(func(*Worker) { ran.Add(1) })
			}
		}()
	}
	submitters.Wait()
	g.Wait()
	if got := ran.Load(); got != 400 {
		t.Fatalf("ran %d of 400", got)
	}
}

// TestQueueOrder pins the queue discipline through the public API: a
// worker runs its own fan-out newest first, and a thief takes the
// oldest task of a blocked owner's queue.
func TestQueueOrder(t *testing.T) {
	var mu sync.Mutex
	var got []int
	record := func(id int) {
		mu.Lock()
		got = append(got, id)
		mu.Unlock()
	}

	s := New(1)
	g := s.NewGroup()
	g.Submit(func(w *Worker) {
		for id := 1; id <= 3; id++ {
			w.Submit(func(*Worker) { record(id) })
		}
	})
	g.Wait()
	s.Close()
	if len(got) != 3 || got[0] != 3 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("one worker ran its fan-out in order %v, want [3 2 1]", got)
	}

	// Two workers: the owner pushes three tasks and blocks until one of
	// them has run, which only the other worker can do — by stealing,
	// and a steal takes the oldest.
	s = New(2)
	defer s.Close()
	got = nil
	ran := make(chan struct{}, 3)
	g = s.NewGroup()
	g.Submit(func(w *Worker) {
		for id := 1; id <= 3; id++ {
			w.Submit(func(*Worker) {
				record(id)
				ran <- struct{}{}
			})
		}
		<-ran
	})
	g.Wait()
	if len(got) != 3 || got[0] != 1 {
		t.Fatalf("two workers ran %v, want the stolen oldest task 1 first", got)
	}
}

// TestNoLostWakeup races external submissions against parking workers:
// a submit that slips between a worker's last scan and its sleep
// without waking anyone would leave its task queued forever, so each
// round's task must start before a deadline. Even rounds submit once
// every worker has registered idle. Odd rounds submit a varying spin
// after the previous task has been released to finish, which sweeps
// the submit across its worker's path from finishing the task to
// sleeping. The task holds its worker until the test has seen it start,
// and both sides spin rather than yield at first, so with more than one
// P they run at once.
func TestNoLostWakeup(t *testing.T) {
	const rounds = 10_000
	// spinUntil spins until done holds, yielding the P only after
	// patience, and reports false past the deadline. With one P the two
	// sides cannot run at once, so they yield at once.
	patience := 50 * time.Microsecond
	if runtime.GOMAXPROCS(0) == 1 {
		patience = 0
	}
	spinUntil := func(done func() bool, deadline time.Time) bool {
		start := time.Now()
		for spin := 1; !done(); spin++ {
			if spin%256 == 0 {
				now := time.Now()
				if now.After(deadline) {
					return false
				}
				if now.Sub(start) >= patience {
					runtime.Gosched()
				}
			}
		}
		return true
	}
	for _, workers := range []int{1, 2, 8} {
		s := New(workers)
		g := s.NewGroup()
		var started, seen atomic.Int64
		for r := int64(1); r <= rounds; r++ {
			if r%2 == 0 {
				for s.idle.Load() < int32(workers) {
					runtime.Gosched()
				}
			} else {
				for spin := r / 2 % 1024; spin > 0 && started.Load() == r-1; spin-- {
				}
			}
			g.Submit(func(*Worker) {
				started.Store(r)
				spinUntil(func() bool { return seen.Load() >= r }, time.Now().Add(time.Minute))
			})
			if !spinUntil(func() bool { return started.Load() >= r }, time.Now().Add(5*time.Second)) {
				t.Fatalf("workers=%d: round %d's task never ran (lost wakeup)", workers, r)
			}
			seen.Store(r)
		}
		g.Wait()
		s.Close()
	}
}

// TestStress100kMicroTasks floods the scheduler with 1e5 microsecond-
// scale tasks — a mix of external submissions and worker fan-out — and
// verifies every one runs exactly once. This is the -race workout for
// the per-worker queues and the park/unpark protocol.
func TestStress100kMicroTasks(t *testing.T) {
	const (
		roots  = 1_000
		perFan = 99 // 1_000 roots × (1 + 99) = 100_000 tasks
	)
	for _, workers := range []int{1, 4, 16} {
		s := New(workers)
		g := s.NewGroup()
		counts := make([]atomic.Int32, roots*(perFan+1))
		for r := 0; r < roots; r++ {
			g.Submit(func(w *Worker) {
				counts[r*(perFan+1)].Add(1)
				for j := 1; j <= perFan; j++ {
					w.Submit(func(*Worker) {
						counts[r*(perFan+1)+j].Add(1)
					})
				}
			})
		}
		g.Wait()
		s.Close()
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times, want exactly 1", workers, i, got)
			}
		}
	}
}

// TestStealContentionExactlyOnce aims every worker at one victim's queue
// simultaneously: a single task fans out a large batch, a barrier holds
// all workers until the batch is fully published, and per-task counters
// then prove no task was lost or duplicated by the racing thieves.
func TestStealContentionExactlyOnce(t *testing.T) {
	const tasks = 4096
	for round := 0; round < 8; round++ {
		workers := 8
		s := New(workers)
		g := s.NewGroup()
		counts := make([]atomic.Int32, tasks)
		var gate sync.WaitGroup
		gate.Add(1)
		// Park the other workers on the gate so the fan-out below all
		// lands in one queue before the thieves pounce at once.
		for i := 0; i < workers-1; i++ {
			g.Submit(func(*Worker) { gate.Wait() })
		}
		g.Submit(func(w *Worker) {
			for i := 0; i < tasks; i++ {
				w.Submit(func(*Worker) { counts[i].Add(1) })
			}
			gate.Done()
		})
		g.Wait()
		s.Close()
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("round %d: task %d ran %d times, want exactly 1", round, i, got)
			}
		}
	}
}

// BenchmarkSchedChains times the scheduler itself at the sweep's shape:
// 34 chains, as in the PAs/GAs bank, each an empty continuation that
// resubmits itself through Worker.Submit for 64 links. It reports the
// queue and wake cost per task in ns/task.
func BenchmarkSchedChains(b *testing.B) {
	const chains, links = 34, 64
	s := New(0)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := s.NewGroup()
		for c := 0; c < chains; c++ {
			left := links
			var cont Task
			cont = func(w *Worker) {
				if left--; left > 0 {
					w.Submit(cont)
				}
			}
			g.Submit(cont)
		}
		g.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chains*links), "ns/task")
}
