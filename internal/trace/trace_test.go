package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleEvents() []Event {
	return []Event{
		{PC: 0x400000, Taken: true},
		{PC: 0x400004, Taken: false},
		{PC: 0x400000, Taken: true},
		{PC: 0x7fffffffffff, Taken: false},
		{PC: 0x400008, Taken: true},
		{PC: 0, Taken: false},
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	rec := &Recorder{}
	for _, ev := range sampleEvents() {
		rec.Branch(ev.PC, ev.Taken)
	}
	if rec.Len() != len(sampleEvents()) {
		t.Fatalf("recorder length %d, want %d", rec.Len(), len(sampleEvents()))
	}
	src := rec.Source()
	for i, want := range sampleEvents() {
		got, ok, err := src.Next()
		if err != nil || !ok {
			t.Fatalf("event %d: ok=%v err=%v", i, ok, err)
		}
		if got != want {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
	}
	if _, ok, _ := src.Next(); ok {
		t.Fatal("source yielded extra event")
	}
}

// recordFile streams events through a StreamRecorder into a named BTR2
// file (nothing resident) and reopens it cold, so every read pages
// through the file's one decode path.
func recordFile(t *testing.T, events []Event, chunkEvents int) (*Handle, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rec.btr")
	sr, err := NewStreamRecorder(path, chunkEvents, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		sr.Branch(ev.PC, ev.Taken)
	}
	if _, err := sr.Seal(); err != nil {
		t.Fatal(err)
	}
	h, err := OpenSpillHandle(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	return h, path
}

// readAll drains a handle's Source, failing on any paging error.
func readAll(t *testing.T, h *Handle) []Event {
	t.Helper()
	var rec Recorder
	if _, err := Copy(&rec, h.Source()); err != nil {
		t.Fatal(err)
	}
	return rec.Events
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	h, _ := recordFile(t, sampleEvents(), 0)
	if got := readAll(t, h); !reflect.DeepEqual(got, sampleEvents()) {
		t.Fatalf("round trip: got %+v want %+v", got, sampleEvents())
	}
}

func TestBinaryCodecCompactness(t *testing.T) {
	// A hot-loop trace (one PC, alternating outcomes) must cost ~1
	// byte/event, far below the naive 9: one delta byte per event, one
	// mask byte per 8, plus per-frame headers.
	const n = 10000
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{PC: 0x400100, Taken: i%2 == 0}
	}
	_, path := recordFile(t, events, 0)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	perEvent := float64(st.Size()) / n
	if perEvent > 1.13 {
		t.Fatalf("hot-loop encoding costs %.3f bytes/event, want ~1.125", perEvent)
	}
}

func TestWriterPartialFinalGroup(t *testing.T) {
	// Streams whose length is not a multiple of the group size must
	// round-trip, at a chunk size that is not one either: every frame
	// may end on a short group.
	for _, chunkEvents := range []int{5, 8, 1024} {
		for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17} {
			events := make([]Event, n)
			for i := range events {
				events[i] = Event{PC: uint64(0x1000 + 4*i), Taken: i%3 == 0}
			}
			h, _ := recordFile(t, events, chunkEvents)
			if got := readAll(t, h); !reflect.DeepEqual(got, events) {
				t.Fatalf("chunk=%d n=%d: got %+v", chunkEvents, n, got)
			}
		}
	}
}

func TestWriterFlushKeepsPartialGroup(t *testing.T) {
	// A one-event recording is one short group in one short frame: the
	// sealed file holds it, and the trailer counts it.
	h, _ := recordFile(t, []Event{{PC: 4, Taken: true}}, 0)
	if h.Events() != 1 || h.Chunks() != 1 {
		t.Fatalf("events=%d chunks=%d, want 1/1", h.Events(), h.Chunks())
	}
	if got := readAll(t, h); len(got) != 1 || got[0] != (Event{PC: 4, Taken: true}) {
		t.Fatalf("events after seal: %+v", got)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.btr")
	if err := os.WriteFile(path, []byte("NOPE...."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSpillHandle(path, 0); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReaderShortHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.btr")
	if err := os.WriteFile(path, []byte("BT"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSpillHandle(path, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want a short-header read error", err)
	}
}

func TestTextCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteText(&buf, SliceSource(sampleEvents()))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(sampleEvents())) {
		t.Fatalf("wrote %d events, want %d", n, len(sampleEvents()))
	}
	events, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(sampleEvents()) {
		t.Fatalf("read %d events, want %d", len(events), len(sampleEvents()))
	}
	for i, want := range sampleEvents() {
		if events[i] != want {
			t.Fatalf("event %d: got %+v want %+v", i, events[i], want)
		}
	}
}

func TestReadTextRejectsGarbage(t *testing.T) {
	if _, err := ReadText(bytes.NewBufferString("0x10 X\n")); err == nil {
		t.Fatal("bad direction accepted")
	}
	if _, err := ReadText(bytes.NewBufferString("zzz\n")); err == nil {
		t.Fatal("bad line accepted")
	}
}

func TestTee(t *testing.T) {
	a, b := &Recorder{}, &Recorder{}
	sink := Tee(a, nil, b)
	sink.Branch(1, true)
	sink.Branch(2, false)
	if a.Len() != 2 || b.Len() != 2 {
		t.Fatalf("tee delivered %d/%d events, want 2/2", a.Len(), b.Len())
	}
}

func TestCopy(t *testing.T) {
	rec := &Recorder{}
	n, err := Copy(rec, SliceSource(sampleEvents()))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(sampleEvents())) || rec.Len() != len(sampleEvents()) {
		t.Fatalf("copied %d, recorded %d", n, rec.Len())
	}
}

func TestCountingSink(t *testing.T) {
	inner := &Recorder{}
	c := &CountingSink{Inner: inner}
	c.Branch(1, true)
	c.Branch(2, false)
	if c.N != 2 || inner.Len() != 2 {
		t.Fatalf("count=%d inner=%d", c.N, inner.Len())
	}
	bare := &CountingSink{}
	bare.Branch(3, true)
	if bare.N != 1 {
		t.Fatalf("bare count=%d", bare.N)
	}
}

func TestStatsSink(t *testing.T) {
	s := NewStatsSink()
	s.Branch(1, true)
	s.Branch(1, false)
	s.Branch(2, true)
	st := s.Stats()
	if st.Events != 3 || st.Taken != 2 || st.StaticSites != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.TakenFraction(); got < 0.66 || got > 0.67 {
		t.Fatalf("taken fraction %v", got)
	}
	if (Stats{}).TakenFraction() != 0 {
		t.Fatal("empty stats taken fraction not 0")
	}
	if st.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), -1 << 62} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag(%d) round-trips to %d", v, got)
		}
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := func(pcs []uint64, dirs []bool, chunk uint8) bool {
		n := min(len(pcs), len(dirs))
		path := filepath.Join(dir, "quick.btr")
		sr, err := NewStreamRecorder(path, int(chunk)+1, 0)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			sr.Branch(pcs[i], dirs[i])
		}
		if _, err := sr.Seal(); err != nil {
			return false
		}
		h, err := OpenSpillHandle(path, 0)
		if err != nil {
			return false
		}
		defer h.f.Close()
		src := h.Source()
		for i := 0; i < n; i++ {
			ev, ok, err := src.Next()
			if err != nil || !ok || ev.PC != pcs[i] || ev.Taken != dirs[i] {
				return false
			}
		}
		_, ok, err := src.Next()
		return !ok && err == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
