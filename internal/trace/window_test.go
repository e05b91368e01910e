package trace

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"btr/internal/sched"
)

// spillHandle builds a spill-backed handle with nothing resident, so
// every first decode is a page-in.
func spillHandle(t *testing.T, n, chunkEvents int) *Handle {
	t.Helper()
	sr, err := NewStreamRecorder("", chunkEvents, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range syntheticEvents(n, 17) {
		sr.Branch(ev.PC, ev.Taken)
	}
	h, err := sr.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// chunkSum fingerprints one decoded chunk: consumers that fold it into
// a running total prove they saw the right columns.
func chunkSum(d *DecodedChunk) uint64 {
	var s uint64
	for i := 0; i < d.N; i++ {
		s = s*31 + d.PCs[i]
		if d.Dirs[i>>6]&(1<<(uint(i)&63)) != 0 {
			s++
		}
	}
	return s
}

// wantSum is the expected running fingerprint over every chunk,
// computed by plain decodes straight off the handle.
func wantSum(t *testing.T, h *Handle) uint64 {
	t.Helper()
	var s uint64
	for k := 0; k < h.Chunks(); k++ {
		d, err := h.DecodeChunk(k)
		if err != nil {
			t.Fatal(err)
		}
		s = s*1000003 + chunkSum(&d)
	}
	return s
}

func TestWindowDepth(t *testing.T) {
	chunk := DecodedChunkBytes(256)
	for _, tc := range []struct {
		budget  int64
		nchunks int
		want    int
	}{
		{0, 16, 16},           // whole recording
		{-1, 16, 1},           // one chunk
		{1, 16, 2},            // below one chunk: the floor of two
		{5 * chunk, 16, 5},    // budget / chunk bytes
		{100 * chunk, 16, 16}, // capped at the recording
		{0, 0, 1},             // empty recording keeps a valid ring
	} {
		if got := windowDepth(tc.budget, tc.nchunks, 256); got != tc.want {
			t.Errorf("windowDepth(%d, %d) = %d, want %d", tc.budget, tc.nchunks, got, tc.want)
		}
	}
}

// TestCheckoutSingleFlight pins the single-flight contract: N
// goroutines first-touching the same chunk at once produce exactly one
// decode; everyone else either shares the install or is parked and
// handed back exactly once by the install.
func TestCheckoutSingleFlight(t *testing.T) {
	h := spillHandle(t, 4000, 256)
	const goroutines = 16
	w := NewChunkWindow[int](h, 0, goroutines)
	for k := 0; k < h.Chunks(); k++ {
		start := make(chan struct{})
		var mu sync.Mutex
		parked, woken := map[int]bool{}, map[int]int{}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				d, ok, wk, err := w.Checkout(k, g)
				if err != nil {
					panic(err)
				}
				mu.Lock()
				defer mu.Unlock()
				for _, c := range wk {
					woken[c]++
				}
				if !ok {
					parked[g] = true
					return
				}
				if d.N != h.chunkLen(k) {
					panic("single-flight checkout observed wrong chunk")
				}
			}()
		}
		close(start)
		wg.Wait()
		if s := w.Stats(); s.Decodes != int64(k+1) {
			t.Fatalf("chunk %d: Decodes = %d after %d concurrent first-touches, want %d (one per chunk)",
				k, s.Decodes, goroutines, k+1)
		}
		for g := range parked {
			if woken[g] != 1 {
				t.Fatalf("chunk %d: consumer %d parked but woken %d times", k, g, woken[g])
			}
			if _, ok, _, _ := w.Checkout(k, g); !ok {
				t.Fatalf("chunk %d: woken consumer %d parked again", k, g)
			}
		}
		if len(woken) != len(parked) {
			t.Fatalf("chunk %d: woke %d consumers, parked %d", k, len(woken), len(parked))
		}
		for g := 0; g < goroutines; g++ {
			w.Release(k)
		}
	}
	s := w.Stats()
	if want := int64(h.Chunks() * (goroutines - 1)); s.Hits != want {
		t.Fatalf("Hits = %d, want %d (everyone but the decoder)", s.Hits, want)
	}
	if s.Released != int64(h.Chunks()) || s.Resident != 0 || s.Parked != 0 {
		t.Fatalf("stats %+v: every chunk must leave the window after its last release", s)
	}
}

// TestChunkWindowRetainsAll pins budget 0: the window spans the whole
// recording, so a leading consumer runs to the end without parking;
// each chunk is decoded — paged in — once, by that leader, and still
// drops as its last consumer passes it.
func TestChunkWindowRetainsAll(t *testing.T) {
	h := spillHandle(t, 4000, 256)
	const consumers = 3
	w := NewChunkWindow[int](h, 0, consumers)
	if w.Depth() != h.Chunks() {
		t.Fatalf("Depth = %d, want the whole recording (%d)", w.Depth(), h.Chunks())
	}
	pageIns := h.PageIns()
	for c := 0; c < consumers; c++ {
		for k := 0; k < h.Chunks(); k++ {
			if _, ok, _, err := w.Checkout(k, c); !ok || err != nil {
				t.Fatalf("consumer %d parked on chunk %d (err %v)", c, k, err)
			}
			w.Release(k)
			want := int64(0)
			if c == consumers-1 {
				want = int64(k + 1)
			}
			if s := w.Stats(); s.Released != want {
				t.Fatalf("consumer %d, chunk %d: %d released, want %d: a chunk drops when its last consumer passes it", c, k, s.Released, want)
			}
		}
	}
	s := w.Stats()
	if got := h.PageIns() - pageIns; got != int64(h.Chunks()) || s.Decodes != int64(h.Chunks()) {
		t.Fatalf("stats %+v, %d page-ins for %d chunks: each chunk must be decoded once", s, got, h.Chunks())
	}
	if s.Hits != int64((consumers-1)*h.Chunks()) || s.Parks != 0 {
		t.Fatalf("stats %+v: the leader decodes, every later checkout hits", s)
	}
	if s.Resident != 0 {
		t.Fatalf("stats %+v: chunks must drop after their last consumer", s)
	}
}

// slideWindow drives a window of the given budget under round-robin
// consumers with one greedy leader: the leader parks at the frontier,
// the laggards' releases wake it, every chunk pages in exactly once, and
// the resident peak never exceeds the depth.
func slideWindow(t *testing.T, budget int64, depth int) {
	t.Helper()
	h := spillHandle(t, 4000, 256)
	const consumers = 4
	w := NewChunkWindow[int](h, budget, consumers)
	if w.Depth() != depth {
		t.Fatalf("budget %d: Depth = %d, want %d", budget, w.Depth(), depth)
	}
	next := make([]int, consumers)
	wake := map[int]bool{}
	for done := 0; done < consumers; {
		progressed := false
		for c := 0; c < consumers; c++ {
			for steps := 0; next[c] < h.Chunks() && (c == 0 || steps < 1); steps++ {
				_, ok, _, _ := w.Checkout(next[c], c)
				if !ok {
					break
				}
				for _, woken := range w.Release(next[c]) {
					wake[woken] = true
				}
				if next[c]++; next[c] == h.Chunks() {
					done++
				}
				progressed = true
			}
		}
		if !progressed {
			t.Fatalf("budget %d: every consumer parked at %v (stats %+v)", budget, next, w.Stats())
		}
	}
	s := w.Stats()
	if s.Decodes != int64(h.Chunks()) || h.PageIns() != int64(h.Chunks()) {
		t.Fatalf("budget %d: %d decodes, %d page-ins for %d chunks", budget, s.Decodes, h.PageIns(), h.Chunks())
	}
	if s.Peak > int64(depth)*DecodedChunkBytes(256) {
		t.Fatalf("budget %d: peak %d above %d chunks", budget, s.Peak, depth)
	}
	if s.Released != int64(h.Chunks()) || s.Resident != 0 {
		t.Fatalf("budget %d: stats %+v: chunks must leave the window", budget, s)
	}
	if depth < h.Chunks() && (s.Parks == 0 || len(wake) == 0) {
		t.Fatalf("budget %d: stats %+v: the leader never parked at the frontier", budget, s)
	}
}

// TestChunkWindowSlidesWithoutRedecode pins a budget of several chunks:
// the window holds that many and slides without re-decoding.
func TestChunkWindowSlidesWithoutRedecode(t *testing.T) {
	slideWindow(t, 3*DecodedChunkBytes(256), 3)
}

// TestChunkWindowTwoChunkFloor pins a budget below one chunk: the window
// still holds two, so the leader always makes progress.
func TestChunkWindowTwoChunkFloor(t *testing.T) {
	slideWindow(t, 1, 2)
}

// TestChunkWindowOneChunk pins a negative budget: a one-chunk window.
func TestChunkWindowOneChunk(t *testing.T) {
	slideWindow(t, -1, 1)
}

// windowConsumer is a scheduler-driven reader of the whole recording,
// shaped like a sweep chain: each task reads a random number of chunks,
// parks when the window says so, and resubmits itself otherwise.
type windowConsumer struct {
	win       *ChunkWindow[sched.Task]
	next, end int
	sum       uint64
	rnd       *rand.Rand
	err       error
	done      bool
	cancelAt  int64  // > 0: cancel once the window has released this many chunks
	cancel    func() // cancels the consumers' group
}

var errTestCanceled = errors.New("test group canceled")

func (c *windowConsumer) step(w *sched.Worker) {
	if w.Canceled() {
		c.err = errTestCanceled
		c.win.Fail(errTestCanceled)
		return
	}
	for n := 1 + c.rnd.Intn(3); n > 0 && c.next < c.end; n-- {
		d, ok, woken, err := c.win.Checkout(c.next, c.step)
		for _, t := range woken {
			w.Submit(t)
		}
		if err != nil {
			c.err = err
		}
		if !ok {
			return
		}
		c.sum = c.sum*1000003 + chunkSum(&d)
		for _, t := range c.win.Release(c.next) {
			w.Submit(t)
		}
		c.next++
		if c.cancelAt > 0 && c.win.Stats().Released >= c.cancelAt {
			c.cancel()
		}
		if c.rnd.Intn(4) == 0 {
			runtime.Gosched()
		}
	}
	if c.next < c.end {
		w.Submit(c.step)
		return
	}
	c.done = true
}

// runConsumers drives n consumers over win on a fresh scheduler with
// the given worker count, in a seeded random submission order; cancelAt
// > 0 has the consumers cancel their group once the window has
// released that many chunks.
func runConsumers(t *testing.T, workers int, win *ChunkWindow[sched.Task], n int, seed int64, cancelAt int64) []*windowConsumer {
	t.Helper()
	s := sched.New(workers)
	defer s.Close()
	g := s.NewGroup()
	rnd := rand.New(rand.NewSource(seed))
	cs := make([]*windowConsumer, n)
	for i := range cs {
		cs[i] = &windowConsumer{win: win, end: win.h.Chunks(),
			rnd: rand.New(rand.NewSource(rnd.Int63())), cancelAt: cancelAt, cancel: g.Cancel}
	}
	for _, i := range rnd.Perm(len(cs)) {
		g.Submit(cs[i].step)
	}
	g.Wait()
	return cs
}

// settleGoroutines waits for the goroutine count to return to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChunkWindowRandomSchedules runs a set of consumers over bounded
// and unbounded windows on 1, 2 and 8 workers, each consumer reading a
// random number of chunks per task under a seeded random submission
// order: every chunk is decoded once, every consumer finishes with the
// right fingerprint (parked consumers were all woken), and the window
// ends empty.
func TestChunkWindowRandomSchedules(t *testing.T) {
	h := spillHandle(t, 12000, 256)
	n := h.Chunks()
	const consumers = 10
	want := wantSum(t, h)
	for _, workers := range []int{1, 2, 8} {
		for _, budget := range []int64{0, 1, 4 * DecodedChunkBytes(256), -1} {
			for seed := int64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("workers=%d/budget=%d/seed=%d", workers, budget, seed)
				base := runtime.NumGoroutine()
				win := NewChunkWindow[sched.Task](h, budget, consumers)
				pageIns := h.PageIns()
				cs := runConsumers(t, workers, win, consumers, seed, 0)
				s := win.Stats()
				if s.Decodes != int64(n) || h.PageIns()-pageIns != int64(n) {
					t.Fatalf("%s: %d decodes, %d page-ins for %d chunks", label, s.Decodes, h.PageIns()-pageIns, n)
				}
				for _, c := range cs {
					if !c.done || c.err != nil {
						t.Fatalf("%s: consumer stopped at %d: %v", label, c.next, c.err)
					}
					if c.sum != want {
						t.Fatalf("%s: a consumer saw the wrong columns", label)
					}
				}
				if s.Released != int64(n) || s.Resident != 0 || s.Parked != 0 {
					t.Fatalf("%s: stats %+v: the window must end empty", label, s)
				}
				if s.Peak > int64(win.Depth())*DecodedChunkBytes(256) {
					t.Fatalf("%s: peak %d above depth %d", label, s.Peak, win.Depth())
				}
				settleGoroutines(t, base)
			}
		}
	}
}

// TestChunkWindowCorruptPoisonsEveryConsumer flips a bit in one page-in:
// the decoding consumer fails with ErrCorruptSpill, the window is
// poisoned so every other consumer — running, parked or not yet started
// — unwinds with the same cause, no consumer finishes with counts, and
// the window ends empty with nothing parked.
func TestChunkWindowCorruptPoisonsEveryConsumer(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, budget := range []int64{1, 0} {
			label := fmt.Sprintf("workers=%d/budget=%d", workers, budget)
			base := runtime.NumGoroutine()
			fio := NewFaultingIO(Fault{Op: OpReadAt, Nth: 4, Kind: FaultBitFlip})
			h := recordSpill(t, filepath.Join(t.TempDir(), "flip.btr"), 8000, 256, 3, fio)
			win := NewChunkWindow[sched.Task](h, budget, 6)
			cs := runConsumers(t, workers, win, 6, 7, 0)
			for _, c := range cs {
				if c.done {
					t.Fatalf("%s: a consumer finished over a corrupt chunk", label)
				}
				err := c.err
				if err == nil {
					// Parked when the window failed: resuming it must hit the
					// poison, not a decode.
					_, _, _, err = win.Checkout(c.next, nil)
				}
				if !errors.Is(err, ErrCorruptSpill) {
					t.Fatalf("%s: consumer at chunk %d ended with %v, want ErrCorruptSpill", label, c.next, err)
				}
			}
			if s := win.Stats(); s.Resident != 0 || s.Parked != 0 {
				t.Fatalf("%s: stats %+v: a poisoned window must free its columns and drop parked consumers", label, s)
			}
			settleGoroutines(t, base)
		}
	}
}

// TestChunkWindowCancelFreesAndDrops cancels the consumers' group
// mid-sweep: the first consumer to notice fails the window, parked
// continuations are dropped rather than resumed, the group drains, and
// the window ends with no resident bytes, nothing parked and no leaked
// goroutines.
func TestChunkWindowCancelFreesAndDrops(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		label := fmt.Sprintf("workers=%d", workers)
		base := runtime.NumGoroutine()
		h := spillHandle(t, 40000, 256)
		const consumers = 8
		win := NewChunkWindow[sched.Task](h, 1, consumers)
		finished := 0
		for _, c := range runConsumers(t, workers, win, consumers, 11, 20) {
			if c.done {
				finished++
			}
		}
		if finished == consumers {
			t.Fatalf("%s: cancel landed after every consumer finished", label)
		}
		if s := win.Stats(); s.Resident != 0 || s.Parked != 0 || s.Released >= int64(h.Chunks()) {
			t.Fatalf("%s: stats %+v: a canceled window must free its columns and drop parked consumers", label, s)
		}
		settleGoroutines(t, base)
	}
}

// TestDecodeChunkIntoAllocs pins the pooled page-in buffer: steady-state
// spill decodes with reused column buffers must not allocate per call.
func TestDecodeChunkIntoAllocs(t *testing.T) {
	h := spillHandle(t, 8000, 256)
	// Warm the scratch pool and size the reusable columns off chunk 0
	// (the largest; later chunks fit inside its capacity).
	d, err := h.DecodeChunkInto(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pcs, dirs := d.PCs, d.Dirs
	k := 0
	avg := testing.AllocsPerRun(100, func() {
		d, err := h.DecodeChunkInto(k%h.Chunks(), pcs, dirs)
		if err != nil {
			panic(err)
		}
		pcs, dirs = d.PCs, d.Dirs
		k++
	})
	if avg > 0.5 {
		t.Fatalf("DecodeChunkInto allocates %.1f allocs/op with reused buffers, want 0", avg)
	}
}
