// Package conf implements the confidence-estimation substrate of §5.3:
// Jacobsen-style dynamic estimators (one-level and two-level resetting
// counters) and the paper's proposal — assigning confidence statically
// from a branch's (taken, transition) class, "without needing to measure
// prior predictor accuracy for each branch".
package conf

import (
	"math/bits"

	"btr/internal/bpred"
	"btr/internal/core"
)

// Estimator assigns a confidence level to each dynamic branch prediction.
// The protocol mirrors prediction: ask before, train after.
type Estimator interface {
	// Name identifies the estimator.
	Name() string
	// HighConfidence reports whether the upcoming prediction for pc
	// should be trusted.
	HighConfidence(pc uint64) bool
	// Update trains the estimator with whether the prediction was
	// correct.
	Update(pc uint64, correct bool)
}

// ResettingCounter is Jacobsen's miss-distance counter: correct
// predictions saturate it upward, one misprediction resets it to zero.
type ResettingCounter uint8

// Update returns the trained counter given max saturation.
func (c ResettingCounter) Update(correct bool, max ResettingCounter) ResettingCounter {
	if !correct {
		return 0
	}
	if c < max {
		return c + 1
	}
	return c
}

// next is Update on the correctness bit ok (0 or 1) without a branch on
// it: the saturating increment is masked to zero on a miss.
func (c ResettingCounter) next(ok uint64, max ResettingCounter) ResettingCounter {
	return (c + ResettingCounter(bit(c < max))) & ResettingCounter(-ok)
}

// bit returns b as an integer bit, 1 or 0.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// OneLevel is the one-level dynamic estimator: a table of resetting
// counters indexed by branch address; confidence is high when the counter
// meets a threshold.
type OneLevel struct {
	counters  []ResettingCounter
	mask      uint64
	max       ResettingCounter
	threshold ResettingCounter
}

// NewOneLevel builds a 2^bits-entry estimator with the given counter
// saturation and high-confidence threshold.
func NewOneLevel(bits int, max, threshold ResettingCounter) *OneLevel {
	return &OneLevel{
		counters:  counterSlab.Get(bits),
		mask:      (1 << uint(bits)) - 1,
		max:       max,
		threshold: threshold,
	}
}

// The estimators' tables are recycled like the predictors'.
var (
	counterSlab bpred.Slab[ResettingCounter]
	historySlab bpred.Slab[uint16]
)

// Release implements ChunkObserver.
func (o *OneLevel) Release() { counterSlab.Put(&o.counters) }

// Name implements Estimator.
func (o *OneLevel) Name() string { return "jacobsen-1level" }

// HighConfidence implements Estimator.
func (o *OneLevel) HighConfidence(pc uint64) bool {
	return o.counters[(pc>>2)&o.mask] >= o.threshold
}

// Update implements Estimator.
func (o *OneLevel) Update(pc uint64, correct bool) {
	i := (pc >> 2) & o.mask
	o.counters[i] = o.counters[i].Update(correct, o.max)
}

// ObserveChunk implements ChunkObserver; the counter is indexed once per
// event for the confidence read and the training, and the verdicts
// collect in a bitmap the quadrants count per 64 events.
func (o *OneLevel) ObserveChunk(pcs, wrong []uint64, n int, q *Quadrants) {
	counters, mask, max, threshold := o.counters, o.mask, o.max, o.threshold
	for base := 0; base < n; base += 64 {
		w := wrong[base>>6]
		var high uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			i := (pc >> 2) & mask
			c := counters[i]
			high |= bit(c >= threshold) << (uint(j) & 63)
			counters[i] = c.next(^w>>(uint(j)&63)&1, max)
		}
		q.observeWord(high, w, n-base)
	}
}

// TwoLevel is the two-level dynamic estimator: a per-branch register of
// recent correct/incorrect outcomes indexes a shared table of resetting
// counters, so confidence keys on the *pattern* of recent accuracy.
type TwoLevel struct {
	history   []uint16
	histMask  uint64
	bits      uint
	counters  []ResettingCounter
	tableMask uint64
	max       ResettingCounter
	threshold ResettingCounter
}

// NewTwoLevel builds an estimator with 2^historyEntries outcome registers
// of historyBits each and a 2^historyBits counter table.
func NewTwoLevel(historyEntries, historyBits int, max, threshold ResettingCounter) *TwoLevel {
	return &TwoLevel{
		history:   historySlab.Get(historyEntries),
		histMask:  (1 << uint(historyEntries)) - 1,
		bits:      uint(historyBits),
		counters:  counterSlab.Get(historyBits),
		tableMask: (1 << uint(historyBits)) - 1,
		max:       max,
		threshold: threshold,
	}
}

// Release implements ChunkObserver.
func (t *TwoLevel) Release() {
	historySlab.Put(&t.history)
	counterSlab.Put(&t.counters)
}

// Name implements Estimator.
func (t *TwoLevel) Name() string { return "jacobsen-2level" }

func (t *TwoLevel) index(pc uint64) uint64 {
	return uint64(t.history[(pc>>2)&t.histMask]) & t.tableMask
}

// HighConfidence implements Estimator.
func (t *TwoLevel) HighConfidence(pc uint64) bool {
	return t.counters[t.index(pc)] >= t.threshold
}

// Update implements Estimator.
func (t *TwoLevel) Update(pc uint64, correct bool) {
	i := t.index(pc)
	t.counters[i] = t.counters[i].Update(correct, t.max)
	h := (pc >> 2) & t.histMask
	t.history[h] <<= 1
	if correct {
		t.history[h] |= 1
	}
	t.history[h] &= uint16(t.tableMask)
}

// ObserveChunk implements ChunkObserver in OneLevel.ObserveChunk's
// shape; the correctness bit also shifts into the branch's register.
func (t *TwoLevel) ObserveChunk(pcs, wrong []uint64, n int, q *Quadrants) {
	history, histMask, tableMask := t.history, t.histMask, t.tableMask
	counters, max, threshold := t.counters, t.max, t.threshold
	for base := 0; base < n; base += 64 {
		w := wrong[base>>6]
		var high uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			ok := ^w >> (uint(j) & 63) & 1
			h := (pc >> 2) & histMask
			hist := uint64(history[h])
			i := hist & tableMask
			c := counters[i]
			high |= bit(c >= threshold) << (uint(j) & 63)
			counters[i] = c.next(ok, max)
			history[h] = uint16((hist<<1 | ok) & tableMask)
		}
		q.observeWord(high, w, n-base)
	}
}

// ClassStatic assigns confidence from the branch's joint class using a
// per-class expected miss-rate table (e.g. the measured Figures 13/14
// matrix): confidence is high when the class's expected miss rate is at or
// below the threshold. It needs no runtime accuracy measurement at all.
type ClassStatic struct {
	table *core.ClassTable
	// high[f] is the verdict for flat joint class f; unprofiled branches
	// (core.Unclassified) are low confidence.
	high [256]bool
}

// NewClassStaticTable builds the estimator from an input's class table,
// which it shares read-only, and a per-joint-class expected miss rate
// matrix.
func NewClassStaticTable(tbl *core.ClassTable, missRate [core.NumClasses][core.NumClasses]float64, threshold float64) *ClassStatic {
	c := &ClassStatic{table: tbl}
	for t := range missRate {
		for tr, rate := range missRate[t] {
			c.high[core.JointClass{Taken: core.Class(t), Transition: core.Class(tr)}.Flat()] = rate <= threshold
		}
	}
	return c
}

// Name implements Estimator.
func (c *ClassStatic) Name() string { return "class-static" }

// HighConfidence implements Estimator.
func (c *ClassStatic) HighConfidence(pc uint64) bool { return c.high[c.table.Index(pc)] }

// Update implements Estimator. The class estimator is static.
func (c *ClassStatic) Update(pc uint64, correct bool) {}

// Release implements ChunkObserver; the estimator owns no tables.
func (c *ClassStatic) Release() {}

// ObserveChunk implements ChunkObserver in OneLevel.ObserveChunk's
// shape.
func (c *ClassStatic) ObserveChunk(pcs, wrong []uint64, n int, q *Quadrants) {
	for base := 0; base < n; base += 64 {
		var high uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			high |= bit(c.high[c.table.Index(pc)]) << (uint(j) & 63)
		}
		q.observeWord(high, wrong[base>>6], n-base)
	}
}

// ChunkObserver is the batch form of the estimator protocol: for each of
// n events of a decoded chunk, in order, ask the estimator, record the
// verdict against the prediction's correctness in q, then train. Event
// i's prediction was wrong when bit i&63 of wrong[i>>6] is set — the
// miss bitmap a predictor's chunk kernel leaves. Every estimator in this
// package implements it. Release returns the estimator's tables to their
// pools once its input is done; the estimator is unusable afterwards.
type ChunkObserver interface {
	ObserveChunk(pcs, wrong []uint64, n int, q *Quadrants)
	Release()
}

var (
	_ ChunkObserver = (*OneLevel)(nil)
	_ ChunkObserver = (*TwoLevel)(nil)
	_ ChunkObserver = (*ClassStatic)(nil)
)

// Quadrants accumulates the confusion matrix of confidence against
// prediction correctness, from which the standard confidence metrics
// derive.
type Quadrants struct {
	HighCorrect int64 // trusted and right
	HighWrong   int64 // trusted and wrong  (the costly case)
	LowCorrect  int64 // distrusted and right (lost opportunity)
	LowWrong    int64 // distrusted and wrong (caught misprediction)
}

// Observe records one prediction.
func (q *Quadrants) Observe(highConf, correct bool) {
	switch {
	case highConf && correct:
		q.HighCorrect++
	case highConf && !correct:
		q.HighWrong++
	case !highConf && correct:
		q.LowCorrect++
	default:
		q.LowWrong++
	}
}

// observeWord records the verdicts of one 64-event word: bit j of high
// is event j's confidence and bit j of wrong its misprediction, for the
// word's first min(events, 64) events.
func (q *Quadrants) observeWord(high, wrong uint64, events int) {
	valid := ^uint64(0)
	if events < 64 {
		valid = 1<<uint(events) - 1
	}
	q.HighCorrect += int64(bits.OnesCount64(high &^ wrong & valid))
	q.HighWrong += int64(bits.OnesCount64(high & wrong & valid))
	q.LowCorrect += int64(bits.OnesCount64(^high &^ wrong & valid))
	q.LowWrong += int64(bits.OnesCount64(^high & wrong & valid))
}

// Add accumulates another tally into q, e.g. one input's quadrants
// into a suite-wide total.
func (q *Quadrants) Add(o Quadrants) {
	q.HighCorrect += o.HighCorrect
	q.HighWrong += o.HighWrong
	q.LowCorrect += o.LowCorrect
	q.LowWrong += o.LowWrong
}

// Total returns the number of observations.
func (q *Quadrants) Total() int64 {
	return q.HighCorrect + q.HighWrong + q.LowCorrect + q.LowWrong
}

// Sensitivity (SENS) is the fraction of mispredictions flagged low
// confidence — how much of the problem the estimator catches.
func (q *Quadrants) Sensitivity() float64 {
	wrong := q.HighWrong + q.LowWrong
	if wrong == 0 {
		return 0
	}
	return float64(q.LowWrong) / float64(wrong)
}

// PredictiveValueNegative (PVN) is the fraction of low-confidence
// predictions that were in fact wrong — how actionable a low-confidence
// signal is.
func (q *Quadrants) PredictiveValueNegative() float64 {
	low := q.LowCorrect + q.LowWrong
	if low == 0 {
		return 0
	}
	return float64(q.LowWrong) / float64(low)
}

// Specificity (SPEC) is the fraction of correct predictions flagged high
// confidence.
func (q *Quadrants) Specificity() float64 {
	correct := q.HighCorrect + q.LowCorrect
	if correct == 0 {
		return 0
	}
	return float64(q.HighCorrect) / float64(correct)
}
