package trace

import (
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

func collect(t *ChunkedTrace) []Event {
	var rec Recorder
	t.Replay(&rec)
	return rec.Events
}

func TestCacheHitMissKeying(t *testing.T) {
	c := NewCache(0, "", 0)
	tr := recordSynthetic(1000, 0, 7)
	key := CacheKey{Name: "gcc/genoutput.i", Scale: 0.5}
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache must miss")
	}
	if err := c.Put(key, tr); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || got != tr {
		t.Fatal("exact-key Get must return the stored trace")
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
	tr := recordSynthetic(500, 0, 3)
	if err := c.Put(CacheKey{Name: "x/in", Fingerprint: 1, Scale: 1}, tr); err != nil {
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
	tr := recordSynthetic(1000, 0, 21)
	key := CacheKey{Name: "y", Scale: 1}
	if err := c.Put(key, tr); err == nil {
		t.Fatal("Put must report the spill failure")
	}
	got, ok := c.Get(key)
	if !ok || got != tr {
		t.Fatal("recording must still be served from memory after a failed spill")
	}
}

func TestCacheEvictionUnderBudget(t *testing.T) {
	a := recordSynthetic(4000, 0, 1)
	b := recordSynthetic(4000, 0, 2)
	// Budget fits one trace, not two.
	c := NewCache(a.SizeBytes()+b.SizeBytes()/2, "", 0)
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
	if s.ResidentBytes > a.SizeBytes()+b.SizeBytes()/2 {
		t.Fatalf("resident %d bytes exceeds budget", s.ResidentBytes)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	a := recordSynthetic(4000, 0, 1)
	b := recordSynthetic(4000, 0, 2)
	c := NewCache(a.SizeBytes()+b.SizeBytes()+1, "", 0)
	ka, kb := CacheKey{Name: "a", Scale: 1}, CacheKey{Name: "b", Scale: 1}
	if err := c.Put(ka, a); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(kb, b); err != nil {
		t.Fatal(err)
	}
	// Touch a, then overflow: b must be the victim.
	c.Get(ka)
	if err := c.Put(CacheKey{Name: "c", Scale: 1}, recordSynthetic(4000, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(ka); !ok {
		t.Fatal("recently-used entry evicted before LRU")
	}
	if _, ok := c.Get(kb); ok {
		t.Fatal("LRU entry must have been the victim")
	}
}

// TestCacheSpillRoundTrip pins the spill mode: an evicted trace
// reloads from disk and replays bit-identically to the original.
func TestCacheSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	orig := recordSynthetic(5000, 100, 9) // odd chunk size, partial final chunk
	key := CacheKey{Name: "vortex/vortex.lit", Scale: 0.1, ChunkEvents: 100}
	// Budget below one trace: the entry spills and is dropped from memory.
	c := NewCache(1, dir, 0)
	if err := c.Put(key, orig); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Spills != 1 {
		t.Fatalf("Spills = %d, want 1", s.Spills)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("spilled entry must reload")
	}
	if got == orig {
		t.Fatal("expected a reloaded trace, not the original pointer")
	}
	if !reflect.DeepEqual(collect(got), collect(orig)) {
		t.Fatal("spill round-trip changed the event stream")
	}
	if got.Events() != orig.Events() {
		t.Fatalf("events %d != %d", got.Events(), orig.Events())
	}
	if s := c.Stats(); s.Loads != 1 || s.Hits != 1 {
		t.Fatalf("stats %+v: want 1 load, 1 hit", s)
	}
}

// TestCacheCrossProcessProbe pins the persistent mode: a second cache
// over the same directory finds recordings the first one wrote.
func TestCacheCrossProcessProbe(t *testing.T) {
	dir := t.TempDir()
	orig := recordSynthetic(3000, 0, 11)
	key := CacheKey{Name: "perl/primes.pl", Scale: 1}
	first := NewCache(0, dir, 0)
	if err := first.Put(key, orig); err != nil {
		t.Fatal(err)
	}
	second := NewCache(0, dir, 0)
	got, ok := second.Get(key)
	if !ok {
		t.Fatal("fresh cache over the same dir must find the spill file")
	}
	if !reflect.DeepEqual(collect(got), collect(orig)) {
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
	oldGen := recordSynthetic(2000, 0, 19)
	first := NewCache(0, dir, 0xaaaa)
	if err := first.Put(key, oldGen); err != nil {
		t.Fatal(err)
	}

	// A build whose registry hashes differently must treat the dir as
	// cold: the old generation's file never matches.
	second := NewCache(0, dir, 0xbbbb)
	if _, ok := second.Get(key); ok {
		t.Fatal("stale-generation spill file must not be served")
	}
	newGen := recordSynthetic(2500, 0, 23)
	if err := second.Put(key, newGen); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.btr"))
	if err != nil || len(files) != 2 {
		t.Fatalf("want both generations' spill files side by side, got %v (%v)", files, err)
	}

	// Each generation still round-trips through its own file.
	for _, tc := range []struct {
		fp   uint64
		want *ChunkedTrace
	}{{0xaaaa, oldGen}, {0xbbbb, newGen}} {
		c := NewCache(0, dir, tc.fp)
		got, ok := c.Get(key)
		if !ok {
			t.Fatalf("fingerprint %#x: own spill file must hit", tc.fp)
		}
		if !reflect.DeepEqual(collect(got), collect(tc.want)) {
			t.Fatalf("fingerprint %#x: reloaded stream diverged", tc.fp)
		}
	}
}

func TestCacheCorruptSpillIsAMiss(t *testing.T) {
	dir := t.TempDir()
	key := CacheKey{Name: "x", Scale: 1}
	c := NewCache(1, dir, 0) // evict immediately so Get must reload
	if err := c.Put(key, recordSynthetic(1000, 0, 5)); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.btr"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spill files: %v %v", files, err)
	}
	if err := os.WriteFile(files[0], []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt spill must read as a miss")
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("entry must be forgotten after a corrupt read")
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
	if _, ok := c.GetHandle(key); ok {
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

	orig := recordSynthetic(3000, 0, 31)
	if err := c.Put(key, orig); err != nil {
		t.Fatal(err)
	}
	h, ok := NewCache(0, dir, 0).GetHandle(key)
	if !ok {
		t.Fatal("fresh cache must hit the file Put wrote over the BTR1 one")
	}
	if !reflect.DeepEqual(replayHandle(h), collect(orig)) {
		t.Fatal("replay after replacing the BTR1 file diverged")
	}
}

// TestCachePutReadoptsEvictedEntry pins that re-storing a key whose
// columns were evicted makes the next Get free again (no disk reload).
func TestCachePutReadoptsEvictedEntry(t *testing.T) {
	dir := t.TempDir()
	tr := recordSynthetic(4000, 0, 13)
	key := CacheKey{Name: "x", Scale: 1}
	c := NewCache(1, dir, 0) // evicts immediately; spill file remains
	if err := c.Put(key, tr); err != nil {
		t.Fatal(err)
	}
	c.maxBytes = 1 << 30 // lift the bound so re-adopted columns stay
	if err := c.Put(key, tr); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || got != tr {
		t.Fatal("re-put trace must be served from memory")
	}
	if s := c.Stats(); s.Loads != 0 {
		t.Fatalf("Loads = %d, want 0 (no disk reload after re-adoption)", s.Loads)
	}
}

func TestCacheFlush(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(0, dir, 0)
	spilled := CacheKey{Name: "spilled", Scale: 1}
	if err := c.Put(spilled, recordSynthetic(2000, 0, 17)); err != nil {
		t.Fatal(err)
	}
	memOnly := NewCache(0, "", 0)
	if err := memOnly.Put(spilled, recordSynthetic(2000, 0, 17)); err != nil {
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

// TestChunkStatsSinkMatchesRecorder pins the O(1)-memory audit model
// against the real recorder, including a partial final chunk.
func TestChunkStatsSinkMatchesRecorder(t *testing.T) {
	for _, n := range []int{0, 999, 2500} {
		rec := NewChunkRecorder(1000)
		sink := NewChunkStatsSink(1000)
		r := uint64(5)
		for i := 0; i < n; i++ {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			pc, taken := 0x400000+(r%512)*4, r&2 != 0
			rec.Branch(pc, taken)
			sink.Branch(pc, taken)
		}
		if got, want := sink.Stats(), rec.Trace().MemStats(); got != want {
			t.Fatalf("n=%d: sink stats %+v != recorder stats %+v", n, got, want)
		}
	}
}

func TestChunkStats(t *testing.T) {
	tr := recordSynthetic(2500, 1000, 3)
	s := tr.MemStats()
	if s.Chunks != 3 || s.Events != 2500 {
		t.Fatalf("stats %+v", s)
	}
	if s.EncodedBytes() != tr.SizeBytes() {
		t.Fatalf("EncodedBytes %d != SizeBytes %d", s.EncodedBytes(), tr.SizeBytes())
	}
	if s.BytesPerEvent() <= 0 || s.BytesPerEvent() > 16 {
		t.Fatalf("bytes/event %.2f implausible", s.BytesPerEvent())
	}
	if (ChunkStats{}).BytesPerEvent() != 0 {
		t.Fatal("empty stats must not divide by zero")
	}
	if s.String() == "" {
		t.Fatal("String must render")
	}
}
