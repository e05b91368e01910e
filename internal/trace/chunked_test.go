package trace

import "testing"

// genEvents produces a deterministic stream with clustered PCs (so deltas
// exercise both short and long varints) and mixed directions.
func genEvents(n int) []Event {
	events := make([]Event, n)
	r := uint64(0x9e3779b97f4a7c15)
	for i := range events {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		pc := 0x400000 + (r%512)*4
		if r%97 == 0 {
			pc += 1 << 30 // occasional far jump: multi-byte delta
		}
		events[i] = Event{PC: pc, Taken: r&2 != 0}
	}
	return events
}

func recordChunked(events []Event, chunkEvents int) *ChunkedTrace {
	rec := NewChunkRecorder(chunkEvents)
	for _, ev := range events {
		rec.Branch(ev.PC, ev.Taken)
	}
	return rec.Trace()
}

func assertRoundTrip(t *testing.T, events []Event, chunkEvents int) {
	t.Helper()
	tr := recordChunked(events, chunkEvents)
	if tr.Events() != int64(len(events)) {
		t.Fatalf("events %d != recorded %d", len(events), tr.Events())
	}

	// Chunk-at-a-time replay.
	rd := NewResidentHandle(tr).NewReader()
	pos := 0
	for {
		d, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if d.N == 0 {
			t.Fatal("empty chunk emitted")
		}
		for i := 0; i < d.N; i++ {
			want := events[pos]
			taken := d.Dirs[i>>6]&(1<<(uint(i)&63)) != 0
			if d.PCs[i] != want.PC || taken != want.Taken {
				t.Fatalf("event %d: got (%#x,%v) want (%#x,%v)",
					pos, d.PCs[i], taken, want.PC, want.Taken)
			}
			pos++
		}
	}
	if pos != len(events) {
		t.Fatalf("replayed %d of %d events", pos, len(events))
	}

	// Event-at-a-time replay via Source.
	src := tr.Source()
	for i, want := range events {
		ev, ok, err := src.Next()
		if err != nil || !ok {
			t.Fatalf("source ended at %d of %d (err=%v)", i, len(events), err)
		}
		if ev != want {
			t.Fatalf("source event %d: got %+v want %+v", i, ev, want)
		}
	}
	if _, ok, _ := src.Next(); ok {
		t.Fatal("source yielded events past the end")
	}
}

func TestChunkedRoundTripBoundaries(t *testing.T) {
	const chunk = 64
	// Exactly full chunks, a partial final chunk, one under/over a
	// boundary, and a single event.
	for _, n := range []int{chunk, 3 * chunk, 3*chunk - 1, 3*chunk + 1, chunk / 2, 1} {
		assertRoundTrip(t, genEvents(n), chunk)
	}
}

func TestChunkedDefaultChunkSize(t *testing.T) {
	events := genEvents(DefaultChunkEvents + 17)
	assertRoundTrip(t, events, 0)
	tr := recordChunked(events, 0)
	if got := tr.Chunks(); got != 2 {
		t.Fatalf("chunks %d, want 2 (full + partial)", got)
	}
}

func TestChunkedEmptyTrace(t *testing.T) {
	tr := NewChunkRecorder(8).Trace()
	if tr.Events() != 0 || tr.Chunks() != 0 || tr.SizeBytes() != 0 {
		t.Fatalf("empty trace not empty: %d events, %d chunks", tr.Events(), tr.Chunks())
	}
	h := NewResidentHandle(tr)
	if _, ok, err := h.NewReader().Next(); ok || err != nil {
		t.Fatalf("reader of empty trace: ok=%v err=%v", ok, err)
	}
	if _, ok, err := tr.Source().Next(); ok || err != nil {
		t.Fatalf("source of empty trace: ok=%v err=%v", ok, err)
	}
	var n int
	h.Replay(SinkFunc(func(uint64, bool) { n++ }))
	if n != 0 {
		t.Fatalf("replay of empty trace emitted %d events", n)
	}
}

func TestChunkedSealedRecorderPanics(t *testing.T) {
	rec := NewChunkRecorder(8)
	rec.Branch(0x400000, true)
	rec.Trace()
	defer func() {
		if recover() == nil {
			t.Fatal("recording into a sealed recorder must panic")
		}
	}()
	rec.Branch(0x400004, false)
}

// TestChunkedReplayerReset: Open rewinds a reader, onto the same
// recording or another one, and the reader keeps its buffers.
func TestChunkedReplayerReset(t *testing.T) {
	events := genEvents(100)
	h := NewResidentHandle(recordChunked(events, 32))
	other := NewResidentHandle(recordChunked(events[:40], 32))
	rd := h.NewReader()
	count := func() int {
		n := 0
		for {
			d, ok, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return n
			}
			n += d.N
		}
	}
	if first := count(); first != len(events) {
		t.Fatalf("first replay saw %d events", first)
	}
	pcs := rd.pcs
	rd.Open(h)
	if second := count(); second != len(events) {
		t.Fatalf("replay after Open saw %d events", second)
	}
	rd.Open(other)
	if third := count(); third != 40 {
		t.Fatalf("replay of another recording saw %d events, want 40", third)
	}
	if &rd.pcs[0] != &pcs[0] {
		t.Fatal("Open dropped the reader's buffers")
	}
}

func TestChunkedConcurrentReplayers(t *testing.T) {
	events := genEvents(1000)
	tr := recordChunked(events, 64)
	done := make(chan int64, 4)
	for g := 0; g < 4; g++ {
		go func() {
			var sum int64
			src := tr.Source()
			for {
				ev, ok, _ := src.Next()
				if !ok {
					break
				}
				sum += int64(ev.PC)
				if ev.Taken {
					sum++
				}
			}
			done <- sum
		}()
	}
	first := <-done
	for g := 1; g < 4; g++ {
		if got := <-done; got != first {
			t.Fatalf("concurrent replayers disagreed: %d vs %d", got, first)
		}
	}
}

func TestChunkedMatchesSliceRecorder(t *testing.T) {
	events := genEvents(777)
	tr := recordChunked(events, 100)
	var replayed []Event
	NewResidentHandle(tr).Replay(SinkFunc(func(pc uint64, taken bool) {
		replayed = append(replayed, Event{PC: pc, Taken: taken})
	}))
	if len(replayed) != len(events) {
		t.Fatalf("replayed %d of %d", len(replayed), len(events))
	}
	for i := range events {
		if replayed[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, replayed[i], events[i])
		}
	}
}
