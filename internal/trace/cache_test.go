package trace

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// recordSynthetic builds a deterministic chunked trace of n events.
func recordSynthetic(n int, chunkEvents int, seed uint64) *ChunkedTrace {
	rec := NewChunkRecorder(chunkEvents)
	r := seed | 1
	for i := 0; i < n; i++ {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		rec.Branch(0x400000+(r%512)*4, r&2 != 0)
	}
	return rec.Trace()
}

// residentSynthetic wraps recordSynthetic's trace as a resident handle.
func residentSynthetic(n int, chunkEvents int, seed uint64) *Handle {
	return NewResidentHandle(recordSynthetic(n, chunkEvents, seed))
}

func TestCacheHitMissKeying(t *testing.T) {
	c := NewCache(0, "", 0)
	h := residentSynthetic(1000, 0, 7)
	key := CacheKey{Name: "gcc/genoutput.i", Scale: 0.5}
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache must miss")
	}
	if err := c.Put(key, h); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || got != h {
		t.Fatal("exact-key Get must return the stored handle")
	}
	// Each key dimension must miss independently.
	for _, miss := range []CacheKey{
		{Name: "gcc/genrecog.i", Scale: 0.5},
		{Name: "gcc/genoutput.i", Scale: 0.25},
		{Name: "gcc/genoutput.i", Scale: 0.5, ChunkEvents: 64},
	} {
		if _, ok := c.Get(miss); ok {
			t.Fatalf("key %+v must miss", miss)
		}
	}
	// ChunkEvents 0 and the spelled-out default are the same recording.
	if _, ok := c.Get(CacheKey{Name: "gcc/genoutput.i", Scale: 0.5, ChunkEvents: DefaultChunkEvents}); !ok {
		t.Fatal("ChunkEvents 0 and DefaultChunkEvents must share a key")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 4 {
		t.Fatalf("stats %+v: want 2 hits, 4 misses", s)
	}
}

// TestCacheKeyFingerprintAndScaleNormalisation pins the two remaining
// key dimensions: same-named specs with different fingerprints must not
// alias, and Scale <= 0 is canonicalised to 1 exactly as the workload
// runner treats it.
func TestCacheKeyFingerprintAndScaleNormalisation(t *testing.T) {
	c := NewCache(0, "", 0)
	if err := c.Put(CacheKey{Name: "x/in", Fingerprint: 1, Scale: 1}, residentSynthetic(500, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(CacheKey{Name: "x/in", Fingerprint: 2, Scale: 1}); ok {
		t.Fatal("different fingerprints must not share a recording")
	}
	if _, ok := c.Get(CacheKey{Name: "x/in", Fingerprint: 1, Scale: 0}); !ok {
		t.Fatal("Scale 0 must normalise to 1 and hit")
	}
	if _, ok := c.Get(CacheKey{Name: "x/in", Fingerprint: 1, Scale: -2}); !ok {
		t.Fatal("negative scale must normalise to 1 and hit")
	}
}

// TestCachePutSpillFailureStillCaches pins that an unwritable spill dir
// loses persistence only: Put reports the error but the recording stays
// usable in memory.
func TestCachePutSpillFailureStillCaches(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "file-not-dir")
	if err := os.WriteFile(dir, []byte("occupied"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache(0, dir, 0) // spill writes into a path that is a file: they fail
	h := residentSynthetic(1000, 0, 21)
	key := CacheKey{Name: "y", Scale: 1}
	if err := c.Put(key, h); err == nil {
		t.Fatal("Put must report the spill failure")
	}
	got, ok := c.Get(key)
	if !ok || got != h {
		t.Fatal("recording must still be served from memory after a failed spill")
	}
}

func TestCacheEvictionUnderBudget(t *testing.T) {
	a := residentSynthetic(4000, 0, 1)
	b := residentSynthetic(4000, 0, 2)
	// Budget fits one trace, not two.
	c := NewCache(a.EncodedBytes()+b.EncodedBytes()/2, "", 0)
	if err := c.Put(CacheKey{Name: "a", Scale: 1}, a); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(CacheKey{Name: "b", Scale: 1}, b); err != nil {
		t.Fatal(err)
	}
	// a is the LRU entry and has no spill path: it must be gone.
	if _, ok := c.Get(CacheKey{Name: "a", Scale: 1}); ok {
		t.Fatal("LRU entry must be evicted")
	}
	if got, ok := c.Get(CacheKey{Name: "b", Scale: 1}); !ok || got != b {
		t.Fatal("most-recent entry must survive eviction")
	}
	s := c.Stats()
	if s.Evicted != 1 {
		t.Fatalf("Evicted = %d, want 1", s.Evicted)
	}
	if s.ResidentBytes > a.EncodedBytes()+b.EncodedBytes()/2 {
		t.Fatalf("resident %d bytes exceeds budget", s.ResidentBytes)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	a := residentSynthetic(4000, 0, 1)
	b := residentSynthetic(4000, 0, 2)
	c := NewCache(a.EncodedBytes()+b.EncodedBytes()+1, "", 0)
	ka, kb := CacheKey{Name: "a", Scale: 1}, CacheKey{Name: "b", Scale: 1}
	if err := c.Put(ka, a); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(kb, b); err != nil {
		t.Fatal(err)
	}
	// Touch a, then overflow: b must be the victim.
	c.Get(ka)
	if err := c.Put(CacheKey{Name: "c", Scale: 1}, residentSynthetic(4000, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(ka); !ok {
		t.Fatal("recently-used entry evicted before LRU")
	}
	if _, ok := c.Get(kb); ok {
		t.Fatal("LRU entry must have been the victim")
	}
}

// TestCacheSpillRoundTrip pins the spill mode: an evicted recording
// keeps its handle, pages back in from disk and replays bit-identically
// to the original.
func TestCacheSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	events := syntheticEvents(5000, 9)
	orig := residentSynthetic(5000, 100, 9) // odd chunk size, partial final chunk
	key := CacheKey{Name: "vortex/vortex.lit", Scale: 0.1, ChunkEvents: 100}
	// Budget below one trace: the entry spills and is dropped from memory.
	c := NewCache(1, dir, 0)
	if err := c.Put(key, orig); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Spills != 1 || s.Evicted != 1 {
		t.Fatalf("stats %+v: want 1 spill, 1 eviction", s)
	}
	got, ok := c.Get(key)
	if !ok || got != orig {
		t.Fatal("a spilled entry must keep its handle")
	}
	if got.ResidentBytes() != 0 {
		t.Fatalf("evicted handle still holds %d resident bytes", got.ResidentBytes())
	}
	if !reflect.DeepEqual(replayHandle(got), events) {
		t.Fatal("spill round-trip changed the event stream")
	}
	if got.PageIns() != int64(got.Chunks()) {
		t.Fatalf("replay paged in %d of %d chunks", got.PageIns(), got.Chunks())
	}
	if s := c.Stats(); s.Loads != 0 || s.Hits != 1 {
		t.Fatalf("stats %+v: want 1 hit and no probe", s)
	}
}

// TestCacheCrossProcessProbe pins the persistent mode: a second cache
// over the same directory finds recordings the first one wrote.
func TestCacheCrossProcessProbe(t *testing.T) {
	dir := t.TempDir()
	key := CacheKey{Name: "perl/primes.pl", Scale: 1}
	first := NewCache(0, dir, 0)
	if err := first.Put(key, residentSynthetic(3000, 0, 11)); err != nil {
		t.Fatal(err)
	}
	second := NewCache(0, dir, 0)
	got, ok := second.Get(key)
	if !ok {
		t.Fatal("fresh cache over the same dir must find the spill file")
	}
	if s := second.Stats(); s.Loads != 1 {
		t.Fatalf("Loads = %d, want 1 probe", s.Loads)
	}
	if !reflect.DeepEqual(replayHandle(got), syntheticEvents(3000, 11)) {
		t.Fatal("cross-process reload changed the event stream")
	}
	if _, ok := second.Get(CacheKey{Name: "perl/primes.pl", Scale: 2}); ok {
		t.Fatal("different scale must not match the spill file")
	}
}

// TestCacheFingerprintSelfInvalidates pins the stale-directory guard: a
// cache built with a different workload-registry fingerprint neither
// reads nor collides with another generation's spill files — the same
// directory holds both generations side by side, each invisible to the
// other.
func TestCacheFingerprintSelfInvalidates(t *testing.T) {
	dir := t.TempDir()
	key := CacheKey{Name: "gcc/genoutput.i", Scale: 1}
	first := NewCache(0, dir, 0xaaaa)
	if err := first.Put(key, residentSynthetic(2000, 0, 19)); err != nil {
		t.Fatal(err)
	}

	// A build whose registry hashes differently must treat the dir as
	// cold: the old generation's file never matches.
	second := NewCache(0, dir, 0xbbbb)
	if _, ok := second.Get(key); ok {
		t.Fatal("stale-generation spill file must not be served")
	}
	if err := second.Put(key, residentSynthetic(2500, 0, 23)); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.btr"))
	if err != nil || len(files) != 2 {
		t.Fatalf("want both generations' spill files side by side, got %v (%v)", files, err)
	}

	// Each generation still round-trips through its own file.
	for _, tc := range []struct {
		fp   uint64
		want []Event
	}{{0xaaaa, syntheticEvents(2000, 19)}, {0xbbbb, syntheticEvents(2500, 23)}} {
		c := NewCache(0, dir, tc.fp)
		got, ok := c.Get(key)
		if !ok {
			t.Fatalf("fingerprint %#x: own spill file must hit", tc.fp)
		}
		if !reflect.DeepEqual(replayHandle(got), tc.want) {
			t.Fatalf("fingerprint %#x: reloaded stream diverged", tc.fp)
		}
	}
}

// TestCacheCorruptSpillIsAMiss pins both sides of a spill file
// overwritten with junk: another process's probe misses, and the
// evicted entry's reads fail, after which the caller's Quarantine makes
// the next Get miss too.
func TestCacheCorruptSpillIsAMiss(t *testing.T) {
	dir := t.TempDir()
	key := CacheKey{Name: "x", Scale: 1}
	c := NewCache(1, dir, 0) // evict immediately so reads must page in
	if err := c.Put(key, residentSynthetic(1000, 0, 5)); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.btr"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spill files: %v %v", files, err)
	}
	if err := os.WriteFile(files[0], []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := NewCache(1, dir, 0).Get(key); ok {
		t.Fatal("corrupt spill must read as a miss")
	}
	h, ok := c.Get(key)
	if !ok {
		t.Fatal("the evicted entry keeps its handle")
	}
	if _, err := h.DecodeChunk(0); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("paging from the junk file: err = %v, want ErrBadMagic", err)
	}
	c.Quarantine(key)
	if _, ok := c.Get(key); ok {
		t.Fatal("entry must be forgotten after its quarantine")
	}
}

// TestCacheLegacyBTR1FileIsACleanMiss pins the upgrade path for a
// cache directory written before BTR2 was the only format: a file with
// the retired BTR1 header at the spill path is a plain miss (bad magic,
// not damage, so nothing is quarantined), and the next Put replaces it
// by temp-and-rename with a file a fresh cache serves.
func TestCacheLegacyBTR1FileIsACleanMiss(t *testing.T) {
	dir := t.TempDir()
	key := CacheKey{Name: "li/train.lsp", Scale: 0.5}
	c := NewCache(1, dir, 0)
	path := c.SpillPathFor(key)
	// "BTR1", then one group: mask 0b01, deltas +4 and +0 (zigzagged).
	if err := os.WriteFile(path, []byte{'B', 'T', 'R', '1', 0x01, 0x08, 0x00}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("a BTR1 file must not be served")
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("stats %+v: want one miss", s)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "*.quarantined")); len(q) != 0 {
		t.Fatalf("a BTR1 file is not damage, but %v was quarantined", q)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("the BTR1 file must stay in place until replaced: %v", err)
	}

	if err := c.Put(key, residentSynthetic(3000, 0, 31)); err != nil {
		t.Fatal(err)
	}
	h, ok := NewCache(0, dir, 0).Get(key)
	if !ok {
		t.Fatal("fresh cache must hit the file Put wrote over the BTR1 one")
	}
	if !reflect.DeepEqual(replayHandle(h), syntheticEvents(3000, 31)) {
		t.Fatal("replay after replacing the BTR1 file diverged")
	}
}

func TestCacheFlush(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(0, dir, 0)
	spilled := CacheKey{Name: "spilled", Scale: 1}
	if err := c.Put(spilled, residentSynthetic(2000, 0, 17)); err != nil {
		t.Fatal(err)
	}
	memOnly := NewCache(0, "", 0)
	if err := memOnly.Put(spilled, residentSynthetic(2000, 0, 17)); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	memOnly.Flush()
	if s := c.Stats(); s.Resident != 0 || s.ResidentBytes != 0 {
		t.Fatalf("flushed cache still resident: %+v", s)
	}
	// Disk-backed entries survive a flush; memory-only entries do not.
	if _, ok := c.Get(spilled); !ok {
		t.Fatal("spill-backed entry must reload after Flush")
	}
	if _, ok := memOnly.Get(spilled); ok {
		t.Fatal("memory-only entry must be gone after Flush")
	}
}

// TestChunkStats pins the chunk count and encoded bytes brtrace -info
// reports: the payload bytes a ChunkRecorder holds resident, which a
// spill file of the same stream holds too, frame for frame — including
// an empty stream and a partial final chunk.
func TestChunkStats(t *testing.T) {
	for _, n := range []int{0, 999, 2500} {
		tr := recordSynthetic(n, 1000, 3)
		h := NewResidentHandle(tr)
		spilled := recordSpill(t, filepath.Join(t.TempDir(), "stats.btr"), n, 1000, 3, nil)
		chunks := (n + 999) / 1000
		if tr.Chunks() != chunks || tr.Events() != int64(n) || h.Chunks() != chunks || spilled.Chunks() != chunks {
			t.Fatalf("n=%d: chunks %d/%d/%d, events %d; want %d chunks", n, tr.Chunks(), h.Chunks(), spilled.Chunks(), tr.Events(), chunks)
		}
		if h.EncodedBytes() != tr.SizeBytes() || spilled.EncodedBytes() != tr.SizeBytes() || h.ResidentBytes() != tr.SizeBytes() {
			t.Fatalf("n=%d: encoded bytes resident %d, spilled %d, resident now %d; want the trace's %d",
				n, h.EncodedBytes(), spilled.EncodedBytes(), h.ResidentBytes(), tr.SizeBytes())
		}
		// Every event costs a delta byte and every 8 events a mask byte.
		if lo := int64(n + (n+7)/8); tr.SizeBytes() < lo || tr.SizeBytes() > 2*lo {
			t.Fatalf("n=%d: %d encoded bytes, implausible against %d", n, tr.SizeBytes(), lo)
		}
		spilled.f.Close()
	}
}

// TestChunkStatsSinkMatchesRecorder pins the bounded-memory record path
// against the real recorder: a StreamRecorder that keeps nothing
// resident, fed event by event alongside a ChunkRecorder, seals a
// handle with the same event count, chunk count and encoded bytes,
// including a partial final chunk.
func TestChunkStatsSinkMatchesRecorder(t *testing.T) {
	for _, n := range []int{0, 999, 2500} {
		rec := NewChunkRecorder(1000)
		sink, err := NewStreamRecorder("", 1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		r := uint64(5)
		for i := 0; i < n; i++ {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			pc, taken := 0x400000+(r%512)*4, r&2 != 0
			rec.Branch(pc, taken)
			sink.Branch(pc, taken)
		}
		h, err := sink.Seal()
		if err != nil {
			t.Fatalf("n=%d: Seal: %v", n, err)
		}
		tr := rec.Trace()
		if h.Events() != tr.Events() || h.Chunks() != tr.Chunks() || h.EncodedBytes() != tr.SizeBytes() {
			t.Fatalf("n=%d: sink events=%d chunks=%d bytes=%d != recorder events=%d chunks=%d bytes=%d",
				n, h.Events(), h.Chunks(), h.EncodedBytes(), tr.Events(), tr.Chunks(), tr.SizeBytes())
		}
		if h.ResidentBytes() != 0 {
			t.Fatalf("n=%d: a zero-budget recording holds %d bytes resident", n, h.ResidentBytes())
		}
		if h.f != nil {
			h.f.Close()
		}
	}
}
