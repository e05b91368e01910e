package bpred

import (
	"testing"
)

func TestDynamicHybridClassifiesAlternator(t *testing.T) {
	d := NewDynamicClassHybrid(12, 64, HybridComponents{})
	pc := uint64(0x400100)
	if got := d.AdviceFor(pc); got != "unclassified" {
		t.Fatalf("fresh branch advice %q", got)
	}
	misses := 0
	for i := 0; i < 1000; i++ {
		taken := i%2 == 0
		if i >= 200 && d.Predict(pc) != taken {
			misses++
		}
		d.Update(pc, taken)
	}
	if got := d.AdviceFor(pc); got != "short-local" {
		t.Fatalf("alternator dynamically classified as %q", got)
	}
	if misses > 0 {
		t.Fatalf("alternator missed %d times after dynamic classification", misses)
	}
}

func TestDynamicHybridClassifiesBiased(t *testing.T) {
	d := NewDynamicClassHybrid(12, 64, HybridComponents{})
	pc := uint64(0x400200)
	misses := 0
	for i := 0; i < 1000; i++ {
		if i >= 200 && !d.Predict(pc) {
			misses++
		}
		d.Update(pc, true)
	}
	if got := d.AdviceFor(pc); got != "static" {
		t.Fatalf("always-taken branch dynamically classified as %q", got)
	}
	if misses > 0 {
		t.Fatalf("biased branch missed %d times after warmup", misses)
	}
}

func TestDynamicHybridKeepsRandomOnLong(t *testing.T) {
	d := NewDynamicClassHybrid(12, 64, HybridComponents{})
	pc := uint64(0x400300)
	r := newTestRand(41)
	for i := 0; i < 2000; i++ {
		taken := r.next()%2 == 0
		d.Predict(pc)
		d.Update(pc, taken)
	}
	// Random branch lands in a middle class -> long-history (or, with
	// window noise, occasionally non-predictive, which also routes long).
	if got := d.AdviceFor(pc); got != "long-history" && got != "non-predictive" {
		t.Fatalf("random branch dynamically classified as %q", got)
	}
}

func TestDynamicHybridAdaptsToPhaseChange(t *testing.T) {
	// A branch that is an alternator for a long phase, then becomes
	// always-taken: the periodic re-classification must move it.
	d := NewDynamicClassHybrid(12, 64, HybridComponents{})
	pc := uint64(0x400400)
	for i := 0; i < 640; i++ {
		d.Update(pc, i%2 == 0)
	}
	if got := d.AdviceFor(pc); got != "short-local" {
		t.Fatalf("phase 1 classification %q", got)
	}
	misses := 0
	for i := 0; i < 640; i++ {
		if i >= 200 && !d.Predict(pc) {
			misses++
		}
		d.Update(pc, true)
	}
	if got := d.AdviceFor(pc); got != "static" {
		t.Fatalf("phase 2 classification %q", got)
	}
	if misses > 5 {
		t.Fatalf("missed %d times after phase change", misses)
	}
}

func TestDynamicHybridWindowDefault(t *testing.T) {
	d := NewDynamicClassHybrid(8, 0, HybridComponents{})
	if d.window != 64 {
		t.Fatalf("default window %d", d.window)
	}
	if d.SizeBits() <= 0 {
		t.Fatal("size accounting")
	}
}

// TestDynamicHybridWindow: a window must span two executions for the
// transition rate to mean anything. Window 1 would divide by zero and
// advise a strict alternator "static", so it is rejected; window 0 is
// the default 64; window 2 classifies an alternator correctly.
func TestDynamicHybridWindow(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewDynamicClassHybrid accepted a window of 1")
			}
		}()
		NewDynamicClassHybrid(8, 1, HybridComponents{})
	}()

	def, explicit := NewDynamicClassHybrid(8, 0, HybridComponents{}), NewDynamicClassHybrid(8, 64, HybridComponents{})
	r := newTestRand(7)
	for i := 0; i < 5000; i++ {
		pc := uint64(0x400000 + (r.next()%32)*4)
		taken := r.next()%3 != 0
		if def.PredictUpdate(pc, taken) != explicit.PredictUpdate(pc, taken) {
			t.Fatalf("window 0 and window 64 diverge at event %d", i)
		}
	}

	d := NewDynamicClassHybrid(8, 2, HybridComponents{})
	pc := uint64(0x400100)
	for i := 0; i < 10; i++ {
		d.Update(pc, i%2 == 0)
	}
	if got := d.AdviceFor(pc); got != "short-local" {
		t.Fatalf("strict alternator under window 2 advised %q, want short-local", got)
	}
}
