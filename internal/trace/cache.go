package trace

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
)

// Cache is a process-wide store of recorded traces keyed by the three
// values that determine a recording bit-for-bit: workload name, scale,
// and chunk granularity. Experiment contexts that agree on all three
// share one recording instead of re-running the generator per context.
//
// Entries are recording Handles, so the cache bounds bytes, not
// recordings: eviction releases a spill-backed handle's resident BTR2
// frames while the handle itself — and every replay already paging
// through it — stays valid, re-reading frames from its BTR2 file on
// demand. With a spill directory configured, memory-only recordings
// are written through as BTR2 files (their frames verbatim) and found
// again by the next process's Get — so a memory-constrained run
// degrades to disk instead of regenerating, and a later process
// pointed at the same directory starts warm. Spill filenames carry the workload-registry fingerprint
// the cache was built with, so files left by a different workload
// generation are invisible rather than silently wrong.

// DefaultCacheBytes is the resident-frame budget used by callers that
// have no better number: 1 GiB, comfortably above a full Table 1 suite
// at scale 1.0 (~1.2 bytes/event).
const DefaultCacheBytes = 1 << 30

// CacheKey identifies one recorded stream. ChunkEvents <= 0 is
// normalised to DefaultChunkEvents and Scale <= 0 to 1 (matching the
// workload runner's treatment) so configs that spell the defaults
// differently still share.
type CacheKey struct {
	// Name is the workload's "bench/input" name.
	Name string
	// Fingerprint disambiguates workloads that share a Name — e.g.
	// custom specs with the same bench/input but different target, seed
	// or generator (workload.Spec.Fingerprint). Zero is fine when names
	// are known unique.
	Fingerprint uint64
	// Scale is the workload scale the stream was generated at.
	Scale float64
	// ChunkEvents is the recording's chunk granularity.
	ChunkEvents int
}

// Normalised returns the key with defaults spelled out, the form the
// cache indexes by; derived caches keyed the same way (sim.ProfileCache)
// must normalise too so aliasing configs share entries.
func (k CacheKey) Normalised() CacheKey {
	if k.ChunkEvents <= 0 {
		k.ChunkEvents = DefaultChunkEvents
	}
	if k.Scale <= 0 {
		k.Scale = 1
	}
	return k
}

// CacheStats counts cache traffic; all cumulative except the Resident
// pair, which snapshot current occupancy.
type CacheStats struct {
	Hits          int64 `json:"hits"`           // Gets served, from memory or disk
	Misses        int64 `json:"misses"`         // Gets that found nothing
	Loads         int64 `json:"loads"`          // hits served by probing the spill directory
	Spills        int64 `json:"spills"`         // traces written to the spill directory
	SpillFailures int64 `json:"spill_failures"` // spill writes that failed (persistence lost, memory reuse kept)
	Evicted       int64 `json:"evicted"`        // entries whose frames were released from memory
	Quarantined   int64 `json:"quarantined"`    // corrupt spill files renamed aside (entry dropped, caller re-records)
	Resident      int   `json:"resident"`       // entries currently holding frames in memory
	ResidentBytes int64 `json:"resident_bytes"` // payload bytes of resident frames
}

// Cache is safe for concurrent use.
type Cache struct {
	mu          sync.Mutex
	maxBytes    int64
	dir         string
	fingerprint uint64
	entries     map[CacheKey]*cacheEntry
	bytes       int64
	tick        int64
	stats       CacheStats
}

// cacheEntry is one keyed recording handle. charged is the resident
// byte count the budget was last billed for; it is re-synced whenever
// the handle's residency changes under the cache's control.
type cacheEntry struct {
	h       *Handle
	charged int64
	used    int64
}

// NewCache builds a cache bounded to maxBytes of resident trace frames
// (<= 0 means unbounded). A non-empty spillDir enables the BTR2 spill
// mode: stored traces are written through to the directory (created if
// missing), evictions keep their file, and Get probes the directory
// for recordings left by earlier processes.
//
// fingerprint names the workload-registry generation the cache belongs
// to (e.g. workload.RegistryFingerprint(): a hash of every spec's name,
// target and seed). It is embedded in every spill filename, so a spill
// directory left by a build with different workloads simply never
// matches — stale directories self-invalidate instead of being trusted
// to match their key. Pass 0 for a memory-only cache or when a single
// fixed workload set owns the directory.
func NewCache(maxBytes int64, spillDir string, fingerprint uint64) *Cache {
	return &Cache{
		maxBytes:    maxBytes,
		dir:         spillDir,
		fingerprint: fingerprint,
		entries:     make(map[CacheKey]*cacheEntry),
	}
}

// Get returns the recording handle for key: an existing entry, else a
// handle over a spill file an earlier process left in the spill
// directory (one scan builds its chunk index; no frame is read). The
// probe runs outside the cache lock, so it never stalls other callers'
// in-memory traffic. The handle stays valid across evictions, which
// only release the resident frames of spill-backed handles; readers
// page through it within their own memory budget.
func (c *Cache) Get(key CacheKey) (*Handle, bool) {
	key = key.Normalised()
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		c.tick++
		e.used = c.tick
		c.stats.Hits++
		c.mu.Unlock()
		return e.h, true
	}
	dir := c.dir
	c.mu.Unlock()
	// Probe the spill dir: a previous process may have left the file;
	// an open failure is simply a miss. A file the scan rejects as
	// corrupt (torn BTR2 structure, bad trailer) is moved aside so the
	// miss does not repeat the doomed scan on every later probe.
	if dir != "" {
		h, err := OpenSpillHandle(c.spillPath(key), key.ChunkEvents)
		if err == nil {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.stats.Hits++
			c.stats.Loads++
			return c.adoptLocked(key, h), true
		}
		if errors.Is(err, ErrCorruptSpill) {
			c.Quarantine(key)
		}
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, false
}

// adoptLocked installs (or refreshes) the entry for key. If another
// goroutine installed a handle first, theirs wins and is returned so
// concurrent callers share one handle per recording.
func (c *Cache) adoptLocked(key CacheKey, h *Handle) *Handle {
	c.tick++
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{h: h, charged: h.ResidentBytes()}
		c.entries[key] = e
		c.bytes += e.charged
		e.used = c.tick
		c.evictLocked()
		return h
	}
	e.used = c.tick
	return e.h
}

// Put stores a recording handle under key. With a spill directory a
// memory-only handle is written through at once, its frames verbatim
// (outside the cache lock, so concurrent workers' cache traffic never
// waits on disk), making it durable across evictions and processes; a
// failed spill is reported but the handle is still cached in memory —
// an unwritable directory only loses persistence, never reuse. A
// handle that already carries a spill file (a StreamRecorder's) is not
// written again. Storing an already-present key only refreshes its
// recency: recordings are deterministic, so the two are identical.
func (c *Cache) Put(key CacheKey, h *Handle) error {
	key = key.Normalised()
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		c.tick++
		e.used = c.tick
		c.mu.Unlock()
		return nil
	}
	dir := c.dir
	c.mu.Unlock()

	// Spill without the lock; the deterministic temp-and-rename write
	// means concurrent Puts of the same recording cannot tear the file.
	var spillErr error
	spilled := h.SpillPath() != "" // stream-recorded straight to a durable file
	if dir != "" && !h.Spilled() {
		if err := h.spillTo(c.spillPath(key)); err != nil {
			spillErr = fmt.Errorf("trace: spilling %s: %w", key.Name, err)
		} else {
			spilled = true
		}
	}

	c.mu.Lock()
	if spilled {
		c.stats.Spills++
	} else if spillErr != nil {
		c.stats.SpillFailures++
	}
	c.adoptLocked(key, h)
	c.mu.Unlock()
	return spillErr
}

// Quarantine drops key's entry and moves its spill file aside (renamed
// with a ".quarantined" suffix, or removed if the rename fails), so the
// next Get misses cleanly and re-records instead of re-reading damaged
// bytes. Probes never match the quarantined name, and the re-recording
// lands at the original path via the usual temp-and-rename. Callers
// invoke it when a replay detects corruption (errors.Is
// ErrCorruptSpill) after the entry was already handed out.
func (c *Cache) Quarantine(key CacheKey) {
	key = key.Normalised()
	c.mu.Lock()
	e := c.entries[key]
	if e != nil {
		c.bytes -= e.charged
		delete(c.entries, key)
	}
	dir := c.dir
	c.mu.Unlock()

	moved := false
	if dir != "" {
		path := c.spillPath(key)
		if err := os.Rename(path, path+".quarantined"); err == nil {
			moved = true
		} else if os.Remove(path) == nil {
			moved = true
		}
	}
	if e != nil || moved {
		c.mu.Lock()
		c.stats.Quarantined++
		c.mu.Unlock()
	}
}

// SpillPathFor returns the deterministic spill-file path for key, or
// "" when the cache has no spill directory. Streaming recorders write
// there directly, so the recording lands exactly where a later
// process's Get probe looks.
func (c *Cache) SpillPathFor(key CacheKey) string {
	if c.dir == "" {
		return ""
	}
	return c.spillPath(key.Normalised())
}

// Flush releases every resident trace frame (spill files are kept), so
// a long-lived process can return the cache's memory without losing the
// disk-backed recordings. Counters are preserved.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.entries {
		c.releaseLocked(key, e)
	}
}

// releaseLocked evicts one entry's resident frames: spill-backed
// handles stay (and reload on demand), memory-only entries are dropped
// entirely — without a file the frames were the recording.
func (c *Cache) releaseLocked(key CacheKey, e *cacheEntry) {
	if e.h.Spilled() {
		if freed := e.h.Release(); freed > 0 || e.charged > 0 {
			c.bytes -= e.charged
			e.charged = 0
			c.stats.Evicted++
		}
		return
	}
	c.bytes -= e.charged
	delete(c.entries, key)
	c.stats.Evicted++
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.ResidentBytes = c.bytes
	for _, e := range c.entries {
		if e.charged > 0 {
			s.Resident++
		}
	}
	return s
}

// evictLocked releases least-recently-used resident frames until the
// budget is met. Recordings are immutable and callers keep their own
// references, so even a just-stored or just-returned entry may be
// released: the caller's pointer stays valid, only the cache forgets.
// Spilled entries keep their handle (and file) and page back on
// demand; without a spill path the entry is dropped and the next Get
// misses.
func (c *Cache) evictLocked() {
	if c.maxBytes <= 0 {
		return
	}
	for c.bytes > c.maxBytes {
		var victim *cacheEntry
		var victimKey CacheKey
		for k, e := range c.entries {
			if e.charged == 0 {
				continue
			}
			if victim == nil || e.used < victim.used {
				victim, victimKey = e, k
			}
		}
		if victim == nil {
			return
		}
		c.releaseLocked(victimKey, victim)
	}
}

// spillPath derives a deterministic file name from the key so separate
// processes agree on where a recording lives. The name is
// "<registry fingerprint>-<key hash>.btr": the leading hex field is the
// workload-registry fingerprint the cache was built with, so two builds
// whose registries differ read and write disjoint file sets inside the
// same -cachedir and a stale directory is ignored, not trusted.
func (c *Cache) spillPath(key CacheKey) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%x|%g|%d", key.Name, key.Fingerprint, key.Scale, key.ChunkEvents)
	return filepath.Join(c.dir, fmt.Sprintf("%016x-%016x.btr", c.fingerprint, h.Sum64()))
}
