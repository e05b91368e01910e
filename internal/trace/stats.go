package trace

import "fmt"

// Stats summarises a branch event stream.
type Stats struct {
	Events      int64 // total dynamic branch executions
	Taken       int64 // dynamic executions that were taken
	StaticSites int   // distinct branch PCs observed
}

// TakenFraction returns the dynamic taken fraction, or 0 for an empty trace.
func (s Stats) TakenFraction() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.Taken) / float64(s.Events)
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("events=%d taken=%.2f%% static_sites=%d",
		s.Events, 100*s.TakenFraction(), s.StaticSites)
}

// StatsSink accumulates Stats from a stream; it implements Sink.
type StatsSink struct {
	stats Stats
	seen  map[uint64]struct{}
}

// NewStatsSink returns an empty accumulator.
func NewStatsSink() *StatsSink {
	return &StatsSink{seen: make(map[uint64]struct{})}
}

// Branch accounts for one event.
func (s *StatsSink) Branch(pc uint64, taken bool) {
	s.stats.Events++
	if taken {
		s.stats.Taken++
	}
	if _, ok := s.seen[pc]; !ok {
		s.seen[pc] = struct{}{}
		s.stats.StaticSites++
	}
}

// Stats returns the accumulated summary.
func (s *StatsSink) Stats() Stats { return s.stats }
