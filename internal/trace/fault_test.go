package trace

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// recordSpill streams n synthetic events into a named BTR2 spill file
// through sio (nil = direct I/O) with nothing resident, so every later
// DecodeChunk pages from disk.
func recordSpill(t *testing.T, path string, n, chunkEvents int, seed uint64, sio SpillIO) *Handle {
	t.Helper()
	sr, err := NewStreamRecorderIO(path, chunkEvents, 0, sio)
	if err != nil {
		t.Fatalf("NewStreamRecorderIO: %v", err)
	}
	for _, e := range syntheticEvents(n, seed) {
		sr.Branch(e.PC, e.Taken)
	}
	h, err := sr.Seal()
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return h
}

// flipByte XORs one bit of the file at off in place.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open for corruption: %v", err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatalf("read byte: %v", err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatalf("write byte: %v", err)
	}
}

func TestVerifySpillClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.btr")
	h := recordSpill(t, path, 1000, 64, 1, nil)
	defer h.Release()

	rep := VerifySpill(path)
	if !rep.OK() {
		t.Fatalf("clean file failed verify: %v", rep.Err)
	}
	if rep.Events != 1000 {
		t.Fatalf("Events = %d, want 1000", rep.Events)
	}
	if want := (1000 + 63) / 64; rep.Chunks != want {
		t.Fatalf("Chunks = %d, want %d", rep.Chunks, want)
	}
}

func TestVerifySpillDetectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.btr")
	recordSpill(t, path, 1000, 64, 2, nil).Release()

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-file lands inside frame payload (payload dominates the
	// layout); either a checksum mismatch or a torn frame structure must
	// surface, and both unwrap to ErrCorruptSpill.
	flipByte(t, path, st.Size()/2)

	rep := VerifySpill(path)
	if rep.OK() {
		t.Fatal("bit-flipped file passed verify")
	}
	if !errors.Is(rep.Err, ErrCorruptSpill) {
		t.Fatalf("Err = %v, want ErrCorruptSpill", rep.Err)
	}
}

func TestVerifySpillDetectsTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.btr")
	recordSpill(t, path, 1000, 64, 3, nil).Release()

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	rep := VerifySpill(path)
	if rep.OK() {
		t.Fatal("truncated file passed verify")
	}
	if !errors.Is(rep.Err, ErrCorruptSpill) {
		t.Fatalf("Err = %v, want ErrCorruptSpill", rep.Err)
	}
}

func TestVerifySpillBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "magic.btr")
	recordSpill(t, path, 100, 64, 4, nil).Release()
	flipByte(t, path, 0)

	rep := VerifySpill(path)
	if rep.OK() || !errors.Is(rep.Err, ErrBadMagic) {
		t.Fatalf("Err = %v, want ErrBadMagic", rep.Err)
	}
}

func TestTransientReadFaultIsRetried(t *testing.T) {
	fio := NewFaultingIO(Fault{Op: OpReadAt, Nth: 1, Kind: FaultError})
	path := filepath.Join(t.TempDir(), "retry.btr")
	h := recordSpill(t, path, 1000, 64, 5, fio)

	want := syntheticEvents(1000, 5)
	got := replayHandle(h)
	if len(got) != len(want) {
		t.Fatalf("replay produced %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if h.ReadRetries() == 0 {
		t.Fatal("transient fault produced no retry")
	}
	if fio.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", fio.Fired())
	}
}

func TestStickyReadFaultFailsBounded(t *testing.T) {
	fio := NewFaultingIO(Fault{Op: OpReadAt, Nth: 1, Sticky: true})
	path := filepath.Join(t.TempDir(), "sticky.btr")
	h := recordSpill(t, path, 1000, 64, 6, fio)

	_, err := h.DecodeChunk(0)
	if err == nil {
		t.Fatal("DecodeChunk succeeded through a sticky read fault")
	}
	if errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("sticky EIO classified as corruption: %v", err)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("err = %v, want to unwrap to EIO", err)
	}
	// Bounded persistence: the first attempt plus one per backoff step,
	// then escalation — not an infinite retry loop.
	if want := 1 + len(spillRetryDelays); fio.Ops(OpReadAt) != want {
		t.Fatalf("ReadAt ops = %d, want %d", fio.Ops(OpReadAt), want)
	}
}

func TestShortReadIsCorruption(t *testing.T) {
	fio := NewFaultingIO(Fault{Op: OpReadAt, Nth: 1, Kind: FaultShortRead, Sticky: true})
	path := filepath.Join(t.TempDir(), "short.btr")
	h := recordSpill(t, path, 1000, 64, 7, fio)

	_, err := h.DecodeChunk(0)
	if !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("err = %v, want ErrCorruptSpill (short read = truncation)", err)
	}
	// Truncation is not a glitch: no retries.
	if fio.Ops(OpReadAt) != 1 {
		t.Fatalf("ReadAt ops = %d, want 1 (no retry on short read)", fio.Ops(OpReadAt))
	}
}

func TestBitFlipCaughtOnPageIn(t *testing.T) {
	fio := NewFaultingIO(Fault{Op: OpReadAt, Nth: 1, Kind: FaultBitFlip, Sticky: true})
	path := filepath.Join(t.TempDir(), "pageflip.btr")
	h := recordSpill(t, path, 1000, 64, 8, fio)

	_, err := h.DecodeChunk(0)
	if !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("err = %v, want ErrCorruptSpill", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
}

func TestWriteENOSPCFailsSealCleanly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nospace.btr")
	fio := NewFaultingIO(Fault{Op: OpWrite, Nth: 1, Kind: FaultENOSPC, Sticky: true})
	sr, err := NewStreamRecorderIO(path, 64, 0, fio)
	if err != nil {
		t.Fatalf("NewStreamRecorderIO: %v", err)
	}
	for _, e := range syntheticEvents(1000, 9) {
		sr.Branch(e.PC, e.Taken)
	}
	h, err := sr.Seal()
	if err == nil {
		t.Fatal("Seal succeeded on a full disk")
	}
	if h != nil {
		t.Fatal("failed Seal returned a handle")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	// A failed Seal cleans up after itself: no torn .btr, no leaked temp.
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("final path exists after failed Seal (err=%v)", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed Seal left %d file(s) behind: %v", len(ents), ents)
	}
}

func TestSyncFaultFailsSeal(t *testing.T) {
	dir := t.TempDir()
	fio := NewFaultingIO(Fault{Op: OpSync, Nth: 1})
	sr, err := NewStreamRecorderIO(filepath.Join(dir, "sync.btr"), 64, 0, fio)
	if err != nil {
		t.Fatalf("NewStreamRecorderIO: %v", err)
	}
	for _, e := range syntheticEvents(200, 10) {
		sr.Branch(e.PC, e.Taken)
	}
	if _, err := sr.Seal(); err == nil {
		t.Fatal("Seal succeeded through a sync fault")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed Seal left %d file(s) behind: %v", len(ents), ents)
	}
}

func TestCacheQuarantinesCorruptSpill(t *testing.T) {
	dir := t.TempDir()
	key := CacheKey{Name: "synthetic/fault", Scale: 1, ChunkEvents: 64}
	events := syntheticEvents(1000, 11)

	c := NewCache(1<<20, dir, 0)
	if err := c.Put(key, residentSynthetic(1000, 64, 11)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := c.SpillPathFor(key)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Put did not write a spill file: %v", err)
	}

	// Damage the payload, then come back as a fresh process: the probe
	// scan passes (frame headers are intact), the read trips the
	// checksum, and the caller quarantines instead of re-probing the
	// same damaged bytes forever.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, path, st.Size()/2)

	c2 := NewCache(1<<20, dir, 0)
	h, ok := c2.Get(key)
	if !ok {
		t.Fatal("the probe scan must accept intact frame headers")
	}
	if _, err := Copy(SinkFunc(func(uint64, bool) {}), h.Source()); !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("reading the damaged file: err = %v, want ErrCorruptSpill", err)
	}
	c2.Quarantine(key)
	if _, ok := c2.Get(key); ok {
		t.Fatal("Get served a quarantined spill file")
	}
	s := c2.Stats()
	if s.Quarantined == 0 {
		t.Fatalf("Quarantined = 0, want >= 1 (stats: %+v)", s)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("corrupt spill still at %s (err=%v)", path, err)
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}

	// The slot is usable again: a re-record lands and round-trips.
	if err := c2.Put(key, residentSynthetic(1000, 64, 11)); err != nil {
		t.Fatalf("re-Put after quarantine: %v", err)
	}
	got, ok := NewCache(1<<20, dir, 0).Get(key)
	if !ok {
		t.Fatal("re-recorded spill not readable")
	}
	have := replayHandle(got)
	if len(events) != len(have) {
		t.Fatalf("re-recorded trace has %d events, want %d", len(have), len(events))
	}
	for i := range events {
		if events[i] != have[i] {
			t.Fatalf("event %d = %+v, want %+v", i, have[i], events[i])
		}
	}
}

func TestCacheQuarantinesTruncatedSpillOnProbe(t *testing.T) {
	dir := t.TempDir()
	key := CacheKey{Name: "synthetic/trunc", Scale: 1, ChunkEvents: 64}

	c := NewCache(1<<20, dir, 0)
	if err := c.Put(key, residentSynthetic(1000, 64, 12)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := c.SpillPathFor(key)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}

	// Truncation is structural, so the probe scan itself rejects the
	// file and the handle never materialises.
	c2 := NewCache(1<<20, dir, 0)
	if _, ok := c2.Get(key); ok {
		t.Fatal("Get succeeded on a truncated spill file")
	}
	if c2.Stats().Quarantined == 0 {
		t.Fatal("truncated spill was not quarantined at probe time")
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
}
