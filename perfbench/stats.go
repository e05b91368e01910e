package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between closest ranks, the rule Python's
// statistics.quantiles(method="inclusive") uses. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile returns the highest whole percentile that has at least
// ten of n samples beyond it, or 0 when even the median lacks that
// support (n < 20). A p90 needs n >= 100, a p99 n >= 1000.
func tailPercentile(n int) int {
	if n < 20 {
		return 0
	}
	// Largest p with n*(100-p)/100 >= 10, i.e. p <= 100 - 1000/n.
	return int(math.Floor(100 - 1000/float64(n) + 1e-9))
}

// span is one timed interval of the traced run. ID groups the spans of
// one pass, input or request; Parent is the index of the enclosing span
// in the recorder, or -1 for a root.
type span struct {
	Name   string        `json:"name"`
	ID     string        `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// selfTime returns each span's duration minus the part of its interval
// covered by its direct children (overlapping children count once).
func selfTime(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, p := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(0), time.Duration(-1)
		for _, c := range kids {
			st, en := max(c.Start, p.Start), min(c.End, p.End)
			if en <= st {
				continue
			}
			if st > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = st, en
			} else if en > curEnd {
				curEnd = en
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[i] = p.dur() - covered
	}
	return self
}

// ratio returns num/den, or 0 when den is 0 (the base is reported
// beside every ratio, so a zero base reads as "n/a").
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
