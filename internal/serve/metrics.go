package serve

import (
	"btr/internal/sched"
	"btr/internal/sim"
	"btr/internal/trace"
)

// Metrics is the /metrics document: one consistent-enough snapshot of
// the shared substrate's counters plus the admission tallies. Counter
// semantics follow the underlying Stats types; everything here is
// cumulative since process start except the gauges (in_flight, queued,
// pending, resident*).
type Metrics struct {
	Requests     RequestMetrics      `json:"requests"`
	Sched        sched.Stats         `json:"sched"`
	TraceCache   TraceCacheMetrics   `json:"trace_cache"`
	ProfileCache ProfileCacheMetrics `json:"profile_cache"`
	// Mem sums each completed request's suite-level MemStats: recording
	// footprints, spill page-ins, chunk-window hits/redecodes, snapshot
	// traffic.
	Mem MemMetrics `json:"mem"`
}

// RequestMetrics counts admissions. InFlight and Queued are gauges.
// Canceled counts requests that ended with a "canceled" record (client
// disconnect or deadline); they are not counted completed or failed.
type RequestMetrics struct {
	InFlight  int64 `json:"in_flight"`
	Queued    int64 `json:"queued"`
	Completed int64 `json:"completed"`
	Rejected  int64 `json:"rejected"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Draining  bool  `json:"draining"`
}

// TraceCacheMetrics mirrors trace.CacheStats with wire-stable names.
type TraceCacheMetrics struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Loads         int64 `json:"loads"`
	Spills        int64 `json:"spills"`
	SpillFailures int64 `json:"spill_failures"`
	Evicted       int64 `json:"evicted"`
	Quarantined   int64 `json:"quarantined"`
	Resident      int   `json:"resident"`
	ResidentBytes int64 `json:"resident_bytes"`
}

// ProfileCacheMetrics mirrors sim.ProfileCacheStats.
type ProfileCacheMetrics struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evicted       int64 `json:"evicted"`
	Resident      int   `json:"resident"`
	ResidentBytes int64 `json:"resident_bytes"`
}

// MemMetrics mirrors sim.MemStats.
type MemMetrics struct {
	RecordedBytes    int64 `json:"recorded_bytes"`
	ResidentPeak     int64 `json:"resident_peak"`
	PageIns          int64 `json:"page_ins"`
	DecodedHits      int64 `json:"decoded_hits"`
	DecodedRedecodes int64 `json:"decoded_redecodes"`
	DecodedEvicted   int64 `json:"decoded_evicted"`
	DecodedPeak      int64 `json:"decoded_peak"`
}

func traceCacheMetrics(s trace.CacheStats) TraceCacheMetrics {
	return TraceCacheMetrics{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Loads:         s.Loads,
		Spills:        s.Spills,
		SpillFailures: s.SpillFailures,
		Evicted:       s.Evicted,
		Quarantined:   s.Quarantined,
		Resident:      s.Resident,
		ResidentBytes: s.ResidentBytes,
	}
}

func profileCacheMetrics(s sim.ProfileCacheStats) ProfileCacheMetrics {
	return ProfileCacheMetrics{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Evicted:       s.Evicted,
		Resident:      s.Resident,
		ResidentBytes: s.ResidentBytes,
	}
}

func memMetrics(m sim.MemStats) MemMetrics {
	return MemMetrics{
		RecordedBytes:    m.RecordedBytes,
		ResidentPeak:     m.ResidentPeak,
		PageIns:          m.PageIns,
		DecodedHits:      m.DecodedHits,
		DecodedRedecodes: m.DecodedRedecodes,
		DecodedEvicted:   m.DecodedEvicted,
		DecodedPeak:      m.DecodedPeak,
	}
}

// Metrics assembles the snapshot.
func (s *Server) Metrics() Metrics {
	s.memMu.Lock()
	mem := s.mem
	s.memMu.Unlock()
	return Metrics{
		Requests: RequestMetrics{
			InFlight:  s.inFlight.Load(),
			Queued:    s.queued.Load(),
			Completed: s.completed.Load(),
			Rejected:  s.rejected.Load(),
			Failed:    s.failed.Load(),
			Canceled:  s.canceled.Load(),
			Draining:  s.draining.Load(),
		},
		Sched:        s.sched.Stats(),
		TraceCache:   traceCacheMetrics(s.shared.Traces.Stats()),
		ProfileCache: profileCacheMetrics(s.shared.Profiles.Stats()),
		Mem:          memMetrics(mem),
	}
}
