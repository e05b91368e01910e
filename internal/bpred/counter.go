// Package bpred implements the branch predictors the paper simulates and
// compares against: the two-level adaptive PAs and GAs configurations with
// the paper's exact 32 KB hardware budget (§3), plus the baseline and
// hybrid predictors its related-work and §5 discussion reference (static,
// last-time, bimodal, GAg/PAg, gshare, agree, McFarling tournament, and
// classification-guided hybrids).
//
// All predictors are deterministic and allocate their tables up front, so
// a predictor's behaviour is a pure function of the branch event stream.
package bpred

// Counter2 is a 2-bit saturating counter in 0..3. Values 2 and 3 predict
// taken. The weakly-not-taken initial value 1 matches sim-bpred's default.
// Training goes through the counterNext table rather than comparisons, so
// neither the outcome nor saturation is a branch on the host.
type Counter2 uint8

// counterNext[c<<1|t] is counter c trained toward outcome bit t: one step
// toward 3 when t is 1, toward 0 when t is 0, saturating at both ends.
var counterNext = [8]Counter2{0, 1, 0, 2, 1, 3, 2, 3}

// next returns c trained toward outcome bit t (0 or 1).
func (c Counter2) next(t uint64) Counter2 {
	return counterNext[(uint64(c)<<1|t)&7]
}

// train trains pht[i] toward outcome bit t and returns the counter's
// pre-update prediction bit: the counter step of every chunk kernel.
func train(pht []Counter2, i, t uint64) uint64 {
	c := pht[i]
	pht[i] = c.next(t)
	return uint64(c >> 1)
}

// Predict reports the counter's current direction prediction.
func (c Counter2) Predict() bool { return c >= 2 }

// Update returns the counter trained toward the outcome, saturating at 0
// and 3.
func (c Counter2) Update(taken bool) Counter2 { return c.next(bit(taken)) }

// bit returns taken as an integer outcome bit, 1 or 0.
func bit(taken bool) uint64 {
	if taken {
		return 1
	}
	return 0
}

// CounterTable is a power-of-two array of 2-bit counters.
type CounterTable struct {
	counters []Counter2
	mask     uint64
}

// NewCounterTable allocates a table with 2^bits counters, all initialised
// weakly not-taken.
func NewCounterTable(bits int) *CounterTable {
	if bits < 0 || bits > 30 {
		panic("bpred: counter table bits out of range")
	}
	n := 1 << bits
	t := &CounterTable{
		counters: make([]Counter2, n),
		mask:     uint64(n - 1),
	}
	// Fill by doubling copies (memmove) rather than a byte-at-a-time
	// store loop: the sweep harness rebuilds 34 tables (~4 MB) per input,
	// making initialisation a measurable slice of small runs.
	t.counters[0] = 1
	for i := 1; i < n; i *= 2 {
		copy(t.counters[i:], t.counters[:i])
	}
	return t
}

// Len returns the number of counters.
func (t *CounterTable) Len() int { return len(t.counters) }

// SizeBits returns the storage cost in bits (2 per counter).
func (t *CounterTable) SizeBits() int64 { return int64(len(t.counters)) * 2 }

// Predict returns the direction predicted at index.
func (t *CounterTable) Predict(index uint64) bool {
	return t.counters[index&t.mask].Predict()
}

// Update trains the counter at index toward the outcome.
func (t *CounterTable) Update(index uint64, taken bool) {
	i := index & t.mask
	t.counters[i] = t.counters[i].Update(taken)
}

// PredictUpdate performs one fused predict-then-update step at index,
// returning the pre-update prediction. It masks and loads the counter
// once, where separate Predict/Update calls index the table twice.
func (t *CounterTable) PredictUpdate(index uint64, taken bool) bool {
	i := index & t.mask
	c := t.counters[i]
	t.counters[i] = c.Update(taken)
	return c.Predict()
}

// Counter returns the raw counter value at index (for tests/inspection).
func (t *CounterTable) Counter(index uint64) Counter2 {
	return t.counters[index&t.mask]
}
