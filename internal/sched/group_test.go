package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestGroupWaitsOnlyForItsOwnTasks is the multi-tenant contract: two
// groups on one scheduler, the first group's Wait returns while the
// second group is still blocked, and the scheduler survives both.
func TestGroupWaitsOnlyForItsOwnTasks(t *testing.T) {
	s := New(4)
	defer s.Close()

	var fastRan atomic.Int64
	gate := make(chan struct{})
	slow := s.NewGroup()
	slow.Submit(func(*Worker) { <-gate })

	fast := s.NewGroup()
	for i := 0; i < 64; i++ {
		fast.Submit(func(*Worker) { fastRan.Add(1) })
	}
	fast.Wait()
	if got := fastRan.Load(); got != 64 {
		t.Fatalf("fast group ran %d tasks, want 64", got)
	}
	close(gate)
	slow.Wait()
}

// TestGroupTracksFanOut pins the sticky-membership rule: follow-up
// tasks submitted via Worker.Submit from inside a group's task belong
// to the group, so Wait covers the whole task tree.
func TestGroupTracksFanOut(t *testing.T) {
	s := New(4)
	defer s.Close()

	var ran atomic.Int64
	g := s.NewGroup()
	g.Submit(func(w *Worker) {
		ran.Add(1)
		for i := 0; i < 10; i++ {
			w.Submit(func(w *Worker) {
				ran.Add(1)
				w.Submit(func(*Worker) { ran.Add(1) })
			})
		}
	})
	g.Wait()
	if got := ran.Load(); got != 21 {
		t.Fatalf("group waited over %d tasks, want 21 (1 + 10 + 10)", got)
	}
}

// TestGroupPanicIsolation: a panicking task surfaces on its own group's
// Wait, other groups and the scheduler keep working.
func TestGroupPanicIsolation(t *testing.T) {
	s := New(2)
	defer s.Close()

	bad := s.NewGroup()
	bad.Submit(func(w *Worker) {
		w.Submit(func(*Worker) { panic("tenant bug") })
	})
	func() {
		defer func() {
			if r := recover(); r != "tenant bug" {
				t.Errorf("bad group Wait recovered %v, want tenant bug", r)
			}
		}()
		bad.Wait()
		t.Error("bad group Wait did not panic")
	}()

	var ran atomic.Int64
	good := s.NewGroup()
	for i := 0; i < 32; i++ {
		good.Submit(func(*Worker) { ran.Add(1) })
	}
	good.Wait()
	if got := ran.Load(); got != 32 {
		t.Fatalf("good group ran %d tasks after sibling panic, want 32", got)
	}
}

// TestConcurrentGroupsStress interleaves many groups from many
// goroutines over one scheduler, each fanning out microtasks — the
// -race workout for the group membership handoff on the worker.
func TestConcurrentGroupsStress(t *testing.T) {
	s := New(4)
	defer s.Close()

	const groups, roots, fan = 16, 8, 25
	var wg sync.WaitGroup
	counts := make([]atomic.Int64, groups)
	for gi := 0; gi < groups; gi++ {
		gi := gi
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := s.NewGroup()
			for r := 0; r < roots; r++ {
				g.Submit(func(w *Worker) {
					counts[gi].Add(1)
					for f := 0; f < fan; f++ {
						w.Submit(func(*Worker) { counts[gi].Add(1) })
					}
				})
			}
			g.Wait()
			if got := counts[gi].Load(); got != roots*(1+fan) {
				t.Errorf("group %d: %d tasks, want %d", gi, got, roots*(1+fan))
			}
		}()
	}
	wg.Wait()
}

// TestStatsCounters: executed counts every task exactly once, injector
// submits count external Submits, and a fan-out pinned to one blocked
// worker's deque forces the other three to steal.
func TestStatsCounters(t *testing.T) {
	s := New(4)
	var gate sync.WaitGroup
	gate.Add(4)
	s.Submit(func(w *Worker) {
		// Three tasks land on this worker's deque while it blocks below,
		// so they can only run by being stolen — and the gate needs all
		// four workers, so they must be.
		for j := 0; j < 3; j++ {
			w.Submit(func(*Worker) { gate.Done(); gate.Wait() })
		}
		gate.Done()
		gate.Wait()
	})
	for i := 0; i < 99; i++ {
		s.Submit(func(*Worker) {})
	}
	s.Wait()

	st := s.Stats()
	if st.Executed != 103 {
		t.Fatalf("Executed = %d, want 103", st.Executed)
	}
	if st.InjectorSubmits != 100 {
		t.Fatalf("InjectorSubmits = %d, want 100", st.InjectorSubmits)
	}
	if st.Steals < 3 {
		t.Fatalf("Steals = %d, want >= 3 (the gated fan-out is steal-only)", st.Steals)
	}
	if st.Pending != 0 {
		t.Fatalf("Pending = %d after Wait, want 0", st.Pending)
	}
	if st.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", st.Workers)
	}
}

// TestCloseRunsQueuedWork: Close without a prior Wait still executes
// everything already submitted, and is idempotent.
func TestCloseRunsQueuedWork(t *testing.T) {
	s := New(2)
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		s.Submit(func(w *Worker) {
			ran.Add(1)
			w.Submit(func(*Worker) { ran.Add(1) })
		})
	}
	s.Close()
	s.Close()
	if got := ran.Load(); got != 200 {
		t.Fatalf("Close drained %d tasks, want 200", got)
	}
}

// TestGroupCancelDrains pins the cooperative-cancellation contract:
// Cancel flips the flag every member task can observe via
// Worker.Canceled, every queued task still runs (so the pending count
// drains and Wait returns), and tasks that check the flag skip their
// work.
func TestGroupCancelDrains(t *testing.T) {
	s := New(4)
	defer s.Close()

	var did, skipped atomic.Int64
	gate := make(chan struct{})
	g := s.NewGroup()
	// Hold every worker (the injector is FIFO, so each takes one gate
	// first): no member can run before Cancel lands.
	for i := 0; i < s.Workers(); i++ {
		g.Submit(func(*Worker) { <-gate })
	}
	for i := 0; i < 128; i++ {
		g.Submit(func(w *Worker) {
			if w.Canceled() {
				skipped.Add(1)
				return
			}
			did.Add(1)
		})
	}
	g.Cancel()
	close(gate)
	g.Wait()

	if !g.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	if did.Load()+skipped.Load() != 128 {
		t.Fatalf("drained %d tasks, want 128 (did=%d skipped=%d)",
			did.Load()+skipped.Load(), did.Load(), skipped.Load())
	}
	if skipped.Load() == 0 {
		t.Fatal("no task observed the cancellation")
	}
	if st := s.Stats(); st.Pending != 0 {
		t.Fatalf("Pending = %d after canceled Wait, want 0", st.Pending)
	}
}

// TestGroupCancelIsolation: canceling one group must not leak into a
// sibling group on the same scheduler.
func TestGroupCancelIsolation(t *testing.T) {
	s := New(4)
	defer s.Close()

	canceled := s.NewGroup()
	canceled.Cancel()
	canceled.Wait()

	var ran atomic.Int64
	live := s.NewGroup()
	for i := 0; i < 64; i++ {
		live.Submit(func(w *Worker) {
			if !w.Canceled() {
				ran.Add(1)
			}
		})
	}
	live.Wait()
	if live.Canceled() {
		t.Fatal("sibling group reports Canceled")
	}
	if got := ran.Load(); got != 64 {
		t.Fatalf("sibling group ran %d tasks, want 64", got)
	}
}

// TestGroupCancelFanOut: tasks fanned out via Worker.Submit after the
// cancel inherit the group, so the whole task tree drains and observes
// the flag.
func TestGroupCancelFanOut(t *testing.T) {
	s := New(4)
	defer s.Close()

	var seen atomic.Int64
	g := s.NewGroup()
	g.Submit(func(w *Worker) {
		g.Cancel()
		for i := 0; i < 10; i++ {
			w.Submit(func(w *Worker) {
				if w.Canceled() {
					seen.Add(1)
				}
			})
		}
	})
	g.Wait()
	if got := seen.Load(); got != 10 {
		t.Fatalf("%d fanned-out tasks observed the cancel, want 10", got)
	}
}
