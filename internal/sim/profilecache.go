package sim

import (
	"sync"
	"unsafe"

	"btr/internal/trace"
)

// DefaultProfileCacheBytes is NewProfileCache's budget. Entries are
// O(sites) plus the 32 KiB Miss matrix and the 2 KiB distribution —
// under 42 KB for each registry input at any scale — so the budget
// holds many suites' worth; it bounds a process that runs an unbounded
// stream of distinct inputs.
const DefaultProfileCacheBytes = 1 << 28 // 256 MiB

// ProfileCache caches an input's whole result — the InputResult sans
// Recorded and Mem (profiles, classes, class table, distribution, Exec,
// Miss, hard-distance histogram) — so a later run with a matching key
// skips the profiling replay and the bank sweep, not just the generator
// run a trace.Cache hit saves. Keys are the (name, fingerprint, scale, chunk)
// quadruple of trace.CacheKey — which pins a recording (and therefore
// every count derived from it) bit for bit — plus the hard-distance
// window, which sizes the cached histogram. Callers must pass
// normalised trace keys (trace.CacheKey.Normalised) so configs that
// spell the defaults differently share entries.
//
// Entries deliberately do NOT hold the recorded trace: the recording's
// lifetime belongs to the trace.Cache and its LRU byte budget, and a
// profile entry pinning it would defeat that bound. profileCached re-
// fetches the recording on a hit (the ablations replay it) and
// recomputes from scratch in the rare case it was evicted without a
// spill path. What an entry does retain is O(sites), independent of
// the trace's length; the cache still carries its own LRU byte budget,
// so entries past it are evicted least-recently-used and simply
// recomputed on the next run, the same degrade-to-recompute contract
// the trace cache has.
//
// Served results share the immutable artifacts (Profiles map, ClassMap,
// class table, distribution, Miss matrix, histogram) with every other
// run of the same key, the run that filled the entry included; only the
// returned InputResult shell — Spec, counts, Exec and the pointers, not
// what they point at — is a fresh copy, so a hit copies about a
// kilobyte whatever the matrix's size. Callers must treat the shared
// artifacts as read-only — the pipeline does. Eviction never
// invalidates a served result: the artifacts stay reachable through the
// result, the cache merely drops its own reference.
type ProfileCache struct {
	mu       sync.Mutex
	entries  map[profileKey]*profileEntry
	maxBytes int64 // 0 = unbounded
	bytes    int64
	tick     int64
	stats    ProfileCacheStats
}

// profileKey pins everything a cached result depends on: the
// recording's identity plus the hard-distance window, which shapes the
// cached histogram's bin count — configs with different windows must
// not serve each other's histograms.
type profileKey struct {
	trace.CacheKey
	window int
}

type profileEntry struct {
	res  InputResult // Recorded nil, Mem zero; the rest filled
	size int64       // estimated footprint, charged against the budget
	used int64       // LRU clock tick of the last touch
}

// ProfileCacheStats counts cache traffic. ResidentBytes is the
// estimated footprint of the retained entries; Evicted counts entries
// dropped to respect the byte budget.
type ProfileCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evicted       int64 `json:"evicted"`
	Resident      int   `json:"resident"`
	ResidentBytes int64 `json:"resident_bytes"`
}

// NewProfileCache returns an empty profile cache with the default byte
// budget (DefaultProfileCacheBytes).
func NewProfileCache() *ProfileCache {
	return NewProfileCacheBytes(DefaultProfileCacheBytes)
}

// NewProfileCacheBytes returns an empty profile cache bounded to
// roughly maxBytes of retained pass-1 artifacts; 0 (or negative) means
// unbounded.
func NewProfileCacheBytes(maxBytes int64) *ProfileCache {
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &ProfileCache{entries: make(map[profileKey]*profileEntry), maxBytes: maxBytes}
}

// entrySize estimates an entry's heap footprint: the profile and class
// maps are charged at rough per-entry costs (bucket + key + value
// struct), the class table and histogram at their size, plus the shell,
// its distribution and the Miss matrix, which is most of it.
func entrySize(e *profileEntry) int64 {
	size := int64(256 + unsafe.Sizeof(*e.res.Miss) + unsafe.Sizeof(*e.res.Distribution))
	if e.res.HardDistances != nil {
		size += int64(len(e.res.HardDistances.Bins)) * 8
	}
	size += int64(len(e.res.Profiles)) * 96
	size += int64(len(e.res.Classes)) * 24
	if e.res.Table != nil {
		size += e.res.Table.SizeBytes()
	}
	return size
}

// get returns a copy of the cached result's shell for key, with
// Recorded nil and Mem zero — the caller supplies the recording, and a
// hit, which reads no trace, keeps Mem zero. The copy points at the
// entry's artifacts, Miss included.
func (c *ProfileCache) get(key trace.CacheKey, window int) (*InputResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[profileKey{key, window}]
	if e == nil {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.tick++
	e.used = c.tick
	res := e.res // shell copy: private Recorded and Mem, shared artifacts
	return &res, true
}

// put snapshots the finished res under key, dropping the per-run Mem
// and the recording reference (the trace.Cache stays its only owner),
// then evicts least-recently-used entries past the byte budget.
// First writer wins; a concurrent duplicate of the same deterministic
// result is dropped.
func (c *ProfileCache) put(key trace.CacheKey, window int, res *InputResult) {
	pk := profileKey{key, window}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[pk]; ok {
		return
	}
	e := &profileEntry{res: *res}
	e.res.Recorded, e.res.Mem = nil, MemStats{}
	e.size = entrySize(e)
	c.tick++
	e.used = c.tick
	c.entries[pk] = e
	c.bytes += e.size
	c.evictLocked()
}

// evictLocked drops least-recently-used entries until the budget holds.
// The newest entry is the most recently used, so a single oversized
// entry survives alone rather than thrashing the whole cache.
func (c *ProfileCache) evictLocked() {
	if c.maxBytes <= 0 {
		return
	}
	for c.bytes > c.maxBytes && len(c.entries) > 1 {
		var victim profileKey
		oldest := int64(1<<63 - 1)
		for k, e := range c.entries {
			if e.used < oldest {
				oldest = e.used
				victim = k
			}
		}
		c.bytes -= c.entries[victim].size
		delete(c.entries, victim)
		c.stats.Evicted++
	}
}

// Stats returns a snapshot of the counters.
func (c *ProfileCache) Stats() ProfileCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Resident = len(c.entries)
	s.ResidentBytes = c.bytes
	return s
}
