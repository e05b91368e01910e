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
	Requests     RequestMetrics        `json:"requests"`
	Sched        sched.Stats           `json:"sched"`
	TraceCache   trace.CacheStats      `json:"trace_cache"`
	ProfileCache sim.ProfileCacheStats `json:"profile_cache"`
	// Mem sums each completed request's suite-level MemStats: recording
	// footprints, spill page-ins, chunk-window hits/redecodes.
	Mem sim.MemStats `json:"mem"`
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
		TraceCache:   s.shared.Traces.Stats(),
		ProfileCache: s.shared.Profiles.Stats(),
		Mem:          mem,
	}
}
