package sim

import (
	"fmt"
	"math"
	"testing"

	"btr/internal/core"
	"btr/internal/rng"
	"btr/internal/workload"
)

// The closed-form checks run one-branch streams with a known law through
// the whole engine (RunInput: profile, classify, record, the scheduled
// 34-slot sweep and attribution) and compare what it measures with the
// analytic values. The miss rates are the stationary forms of a 2-bit
// counter's Markov chain, as in the predictor-level closed-form test.

// closedFormEvents is each stream's length.
const closedFormEvents = 1 << 20

// counterMissIID is a 2-bit counter's miss rate on i.i.d. outcomes taken
// with probability p: the stationary distribution is π_i ∝ r^i with
// r = p/(1−p), states 0 and 1 miss taken outcomes, 2 and 3 the others.
func counterMissIID(p float64) float64 {
	r := p / (1 - p)
	return (p*(1+r) + (1-p)*(r*r+r*r*r)) / (1 + r + r*r + r*r*r)
}

// counterMissMarkov is a lone counter's miss rate on a two-state Markov
// stream that repeats its last outcome with probability s. The pair
// (counter, last outcome) is a Markov chain; its stationary distribution
// comes from power iteration.
func counterMissMarkov(s float64) float64 {
	var pi [8]float64 // state c<<1 | last
	for i := range pi {
		pi[i] = 1.0 / 8
	}
	miss := 0.0
	for iter := 0; iter < 20000; iter++ {
		var next [8]float64
		miss = 0
		for st, w := range pi {
			c, last := st>>1, st&1
			for x := 0; x < 2; x++ {
				q := s
				if x != last {
					q = 1 - s
				}
				if (c >= 2) != (x == 1) {
					miss += w * q
				}
				nc := min(c+1, 3)
				if x == 0 {
					nc = max(c-1, 0)
				}
				next[nc<<1|x] += w * q
			}
		}
		pi = next
	}
	return miss
}

// closedFormCase is one single-branch stream and its analytic values.
type closedFormCase struct {
	spec workload.Spec
	// taken and trans are the stream's taken and transition rates.
	taken, trans float64
	// rho is the lag-1 autocorrelation of the outcomes: 0 for Bernoulli,
	// 2s−1 for the Markov branch.
	rho float64
	// miss maps each checked bank slot to its analytic miss rate.
	miss map[[2]int]float64
}

func bernoulliCase(p float64, seed uint64) closedFormCase {
	spec := workload.NewSpec("closedform", fmt.Sprintf("bernoulli(%g)", p), closedFormEvents, seed,
		func(t *workload.T, r *rng.Rand, target int64) {
			for t.N() < target {
				t.B(0, r.Bool(p))
			}
		})
	m := counterMissIID(p)
	return closedFormCase{spec: spec, taken: p, trans: 2 * p * (1 - p),
		miss: map[[2]int]float64{{int(KindPAs), 0}: m, {int(KindGAs), 0}: m}}
}

// markovCase repeats the last outcome with probability s. A k = 0
// counter needs the (counter, last outcome) chain; the PAs(1) and GAs(1)
// counters are each indexed by the last outcome, so each sees outcomes
// that repeat its index with probability s: Bernoulli(s) up to the
// counter's taken/not-taken symmetry.
func markovCase(s float64, seed uint64) closedFormCase {
	spec := workload.NewSpec("closedform", fmt.Sprintf("markov(%g)", s), closedFormEvents, seed,
		func(t *workload.T, r *rng.Rand, target int64) {
			last := false
			for t.N() < target {
				last = t.B(0, last == r.Bool(s))
			}
		})
	k0, k1 := counterMissMarkov(s), counterMissIID(s)
	return closedFormCase{spec: spec, taken: 0.5, trans: 1 - s, rho: 2*s - 1,
		miss: map[[2]int]float64{
			{int(KindPAs), 0}: k0, {int(KindGAs), 0}: k0,
			{int(KindPAs), 1}: k1, {int(KindGAs), 1}: k1,
		}}
}

// TestClosedFormThroughSim checks classes and attributed miss rates
// against the analytic values. The rates are chosen at class centres
// (every expected rate sits at least 0.03 from a class edge), so a
// correct engine classifies each stream exactly.
//
// Tolerance: an observed rate over n events is within 6 binomial
// standard deviations sqrt(q(1−q)/n) of its analytic value q, widened by
// sqrt((1+ρ)/(1−ρ)) for outcomes with lag-1 autocorrelation ρ (the
// variance inflation of a two-state Markov stream; 1 for Bernoulli).
func TestClosedFormThroughSim(t *testing.T) {
	cases := []closedFormCase{
		bernoulliCase(0.5, 1),
		bernoulliCase(0.7, 2),
		bernoulliCase(0.9, 3),
		markovCase(0.8, 4),
		markovCase(0.9, 5),
	}
	for _, c := range cases {
		t.Run(c.spec.Input, func(t *testing.T) {
			res := RunInput(c.spec, Config{Scale: 1})
			n := float64(res.Events)
			if res.Sites != 1 || res.Events < closedFormEvents {
				t.Fatalf("%d sites, %d events; want 1 and at least %d", res.Sites, res.Events, closedFormEvents)
			}
			inflate := math.Sqrt((1 + c.rho) / (1 - c.rho))
			check := func(what string, got, want float64) {
				t.Helper()
				tol := 6 * math.Sqrt(want*(1-want)/n) * inflate
				t.Logf("%s: %.5f, analytic %.5f, off by %.2f of the tolerance", what, got, want, math.Abs(got-want)/tol)
				if math.Abs(got-want) > tol {
					t.Errorf("%s: %.5f, analytic %.5f (tolerance %.5f)", what, got, want, tol)
				}
			}

			p := res.Profiles[c.spec.PCBase()]
			check("taken rate", p.TakenRate(), c.taken)
			check("transition rate", p.TransitionRate(), c.trans)
			want := core.JointClass{Taken: core.ClassOf(c.taken), Transition: core.ClassOf(c.trans)}
			if jc := res.Classes[c.spec.PCBase()]; jc != want {
				t.Fatalf("classified %s, want %s", jc, want)
			}
			tc, trc := want.Taken, want.Transition
			if res.Exec[tc][trc] != res.Events {
				t.Fatalf("Exec[%s] = %d, want every one of %d events", want, res.Exec[tc][trc], res.Events)
			}
			for slot, rate := range c.miss {
				kind, k := Kind(slot[0]), slot[1]
				m := &res.Miss[kind][k]
				if m.Total() != m[tc][trc] {
					t.Fatalf("%v(k=%d): misses outside class %s", kind, k, want)
				}
				check(fmt.Sprintf("%v(k=%d) miss rate", kind, k), float64(m[tc][trc])/n, rate)
			}
			if want.Hard() && res.HardDistances.Bins[1] != res.Events-1 {
				t.Fatalf("every event is hard, so all %d distances are 1: bins %v", res.Events-1, res.HardDistances.Bins)
			}
		})
	}
}

// TestCounterMissForms pins the two stationary forms at values known in
// closed form.
func TestCounterMissForms(t *testing.T) {
	for _, c := range []struct{ got, want float64 }{
		{counterMissIID(0.5), 0.5},
		{counterMissIID(0.9), 0.1098},
		{counterMissMarkov(0.8), 2.0 / 7},
		{counterMissMarkov(0.95), 1.0 / 11},
	} {
		if math.Abs(c.got-c.want) > 5e-5 {
			t.Errorf("%.5f, want %.5f", c.got, c.want)
		}
	}
}
