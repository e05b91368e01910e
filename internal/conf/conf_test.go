package conf

import (
	"testing"
	"testing/quick"

	"btr/internal/core"
)

func TestResettingCounter(t *testing.T) {
	c := ResettingCounter(0)
	for i := 0; i < 20; i++ {
		c = c.Update(true, 15)
	}
	if c != 15 {
		t.Fatalf("counter saturated at %d, want 15", c)
	}
	c = c.Update(false, 15)
	if c != 0 {
		t.Fatal("misprediction must reset the counter to 0")
	}
}

func TestOneLevelThreshold(t *testing.T) {
	o := NewOneLevel(8, 15, 4)
	pc := uint64(0x400)
	if o.HighConfidence(pc) {
		t.Fatal("fresh estimator must be low confidence")
	}
	for i := 0; i < 4; i++ {
		o.Update(pc, true)
	}
	if !o.HighConfidence(pc) {
		t.Fatal("4 correct predictions must reach threshold 4")
	}
	o.Update(pc, false)
	if o.HighConfidence(pc) {
		t.Fatal("one miss must drop confidence")
	}
	if o.Name() == "" {
		t.Fatal("name")
	}
}

func TestOneLevelIndependentBranches(t *testing.T) {
	o := NewOneLevel(8, 15, 2)
	for i := 0; i < 3; i++ {
		o.Update(0x100, true)
	}
	if o.HighConfidence(0x2000) {
		t.Fatal("confidence must be per-branch (different table slots)")
	}
}

func TestTwoLevelLearnsAccuracyPattern(t *testing.T) {
	// Prediction correctness alternates correct/incorrect; a two-level
	// estimator keyed on the accuracy pattern can learn that after a
	// "correct" the next is "incorrect": after warmup the counter indexed
	// by the all-correct-suffix pattern stays low.
	e := NewTwoLevel(6, 4, 15, 8)
	pc := uint64(0x80)
	for i := 0; i < 200; i++ {
		e.Update(pc, i%2 == 0)
	}
	// The pattern ending in "correct" predicts the next will be wrong:
	// low confidence expected.
	e.Update(pc, true)
	if e.HighConfidence(pc) {
		t.Fatal("two-level should have learned the alternating accuracy pattern")
	}
	if e.Name() == "" {
		t.Fatal("name")
	}
}

func TestClassStatic(t *testing.T) {
	classes := core.ClassMap{
		0x10: {Taken: 10, Transition: 0}, // easy class
		0x20: {Taken: 5, Transition: 5},  // hard class
	}
	var missRate [core.NumClasses][core.NumClasses]float64
	missRate[10][0] = 0.01
	missRate[5][5] = 0.45
	e := NewClassStatic(classes, missRate, 0.08)
	if !e.HighConfidence(0x10) {
		t.Fatal("easy-class branch must be high confidence")
	}
	if e.HighConfidence(0x20) {
		t.Fatal("5/5 branch must be low confidence")
	}
	if e.HighConfidence(0x999) {
		t.Fatal("unprofiled branch must be low confidence")
	}
	e.Update(0x10, false) // static: no-op
	if !e.HighConfidence(0x10) {
		t.Fatal("class estimator must not change at runtime")
	}
	if e.Name() == "" {
		t.Fatal("name")
	}
}

func TestQuadrantsMetrics(t *testing.T) {
	var q Quadrants
	// 60 trusted-correct, 10 trusted-wrong, 10 distrusted-correct,
	// 20 distrusted-wrong.
	for i := 0; i < 60; i++ {
		q.Observe(true, true)
	}
	for i := 0; i < 10; i++ {
		q.Observe(true, false)
	}
	for i := 0; i < 10; i++ {
		q.Observe(false, true)
	}
	for i := 0; i < 20; i++ {
		q.Observe(false, false)
	}
	if q.Total() != 100 {
		t.Fatalf("total %d", q.Total())
	}
	if got := q.Sensitivity(); got != 20.0/30.0 {
		t.Fatalf("sensitivity %v", got)
	}
	if got := q.PredictiveValueNegative(); got != 20.0/30.0 {
		t.Fatalf("PVN %v", got)
	}
	if got := q.Specificity(); got != 60.0/70.0 {
		t.Fatalf("specificity %v", got)
	}
}

func TestQuadrantsEmpty(t *testing.T) {
	var q Quadrants
	if q.Sensitivity() != 0 || q.PredictiveValueNegative() != 0 || q.Specificity() != 0 {
		t.Fatal("empty quadrants must report 0 metrics")
	}
}

// TestQuickQuadrantsAdd: tallying a stream in two halves and adding
// them gives the same quadrants as tallying it whole.
func TestQuickQuadrantsAdd(t *testing.T) {
	f := func(hc, correct []bool, split uint8) bool {
		n := min(len(hc), len(correct))
		cut := 0
		if n > 0 {
			cut = int(split) % (n + 1)
		}
		var whole, head, tail Quadrants
		for i := 0; i < n; i++ {
			whole.Observe(hc[i], correct[i])
			if i < cut {
				head.Observe(hc[i], correct[i])
			} else {
				tail.Observe(hc[i], correct[i])
			}
		}
		head.Add(tail)
		return head == whole
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickQuadrantsConsistency(t *testing.T) {
	f := func(obs []bool) bool {
		var q Quadrants
		for i, hc := range obs {
			q.Observe(hc, i%3 != 0)
		}
		if q.Total() != int64(len(obs)) {
			return false
		}
		for _, m := range []float64{q.Sensitivity(), q.PredictiveValueNegative(), q.Specificity()} {
			if m < 0 || m > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickResettingCounterBounds(t *testing.T) {
	f := func(updates []bool, max8 uint8) bool {
		max := ResettingCounter(max8%63 + 1)
		c := ResettingCounter(0)
		for _, u := range updates {
			c = c.Update(u, max)
			if c > max {
				return false
			}
			if !u && c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
