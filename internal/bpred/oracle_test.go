package bpred

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"btr/internal/trace"
)

// Two oracles for the paper's 34-slot PAs/GAs bank that share no code with
// the predictors: a map-based reference written from the §3 index
// formulas, and closed-form miss rates of a 2-bit counter under Bernoulli
// and two-state Markov outcome streams.

// refTwoLevel is a reference PAs or GAs. The PHT index is
// (pc>>2 & (2^(P−k)−1))<<k | hist, with P = 17 for GAs and PAs(0) and
// P = 16 for PAs(k ≥ 1), whose BHT has 2^⌊log2(2^17/k)⌋ entries.
// Counters live in a map, start at 1 and saturate through their own
// if/else.
type refTwoLevel struct {
	perAddr  bool
	k        uint
	addrBits uint
	bhtMask  uint64
	ghr      uint64
	bht      map[uint64]uint64
	pht      map[uint64]uint8
}

func newRefTwoLevel(perAddr bool, k int) *refTwoLevel {
	r := &refTwoLevel{perAddr: perAddr, k: uint(k), addrBits: uint(17 - k),
		bht: map[uint64]uint64{}, pht: map[uint64]uint8{}}
	if perAddr && k >= 1 {
		r.addrBits = uint(16 - k)
		r.bhtMask = 1<<(bits.Len(uint(1<<17/k))-1) - 1
	}
	return r
}

// step predicts the branch at pc, trains on taken and returns the
// prediction.
func (r *refTwoLevel) step(pc uint64, taken bool) bool {
	hist := r.ghr
	if r.perAddr {
		hist = r.bht[pc>>2&r.bhtMask]
	}
	hist &= 1<<r.k - 1
	idx := (pc>>2&(1<<r.addrBits-1))<<r.k | hist
	c, ok := r.pht[idx]
	if !ok {
		c = 1
	}
	predicted := c >= 2
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	r.pht[idx] = c
	hist <<= 1
	if taken {
		hist |= 1
	}
	if r.perAddr {
		r.bht[pc>>2&r.bhtMask] = hist
	} else {
		r.ghr = hist
	}
	return predicted
}

// twoLevel is what a bank slot offers: all three stepping protocols.
type twoLevel interface {
	Predictor
	PredictUpdater
	ChunkSweeper
}

// bankSlot builds flat slot s of the paper's bank, PAs(0..16) then
// GAs(0..16), with its reference twin.
func bankSlot(s int) (twoLevel, *refTwoLevel) {
	k := s % (MaxHistory + 1)
	if s <= MaxHistory {
		return NewPAs(k), newRefTwoLevel(true, k)
	}
	return NewGAs(k), newRefTwoLevel(false, k)
}

const bankSlots = 2 * (MaxHistory + 1)

// oracleChunk is one kernel input: pcs carries garbage PCs past n and
// dirs garbage outcome bits past n, up to one whole extra word.
type oracleChunk struct {
	pcs, dirs []uint64
	n         int
}

// oracleChunks cuts a stream into chunks of length l.
func oracleChunks(stream []testEvent, l int) []oracleChunk {
	r := newTestRand(uint64(l))
	var out []oracleChunk
	for start := 0; start < len(stream); start += l {
		n := min(l, len(stream)-start)
		c := oracleChunk{pcs: make([]uint64, n+64), dirs: make([]uint64, (n+63)/64+1), n: n}
		for i := range c.pcs {
			c.pcs[i] = r.next() &^ 3
		}
		for w := range c.dirs {
			c.dirs[w] = r.next()
		}
		for i, ev := range stream[start : start+n] {
			c.pcs[i] = ev.pc
			bit := uint64(1) << (uint(i) & 63)
			c.dirs[i>>6] &^= bit
			if ev.taken {
				c.dirs[i>>6] |= bit
			}
		}
		out = append(out, c)
	}
	return out
}

// TestBankMatchesReference drives all 34 slots through SweepChunk,
// PredictUpdate and Predict+Update against the reference, over every
// test stream and chunk lengths around the 64-event word boundary.
func TestBankMatchesReference(t *testing.T) {
	streams := testStreams()
	streams["recorded"], _ = recordedStream(t)
	lengths := []int{1, 63, 64, 65, 97, 1000, trace.DefaultChunkEvents}
	for sname, stream := range streams {
		chunks := make(map[int][]oracleChunk, len(lengths))
		for _, l := range lengths {
			chunks[l] = oracleChunks(stream, l)
		}
		for s := 0; s < bankSlots; s++ {
			p, ref := bankSlot(s)
			name := sname + "/" + p.Name()
			want := make([]bool, len(stream))
			for i, ev := range stream {
				want[i] = ref.step(ev.pc, ev.taken) != ev.taken
			}
			separate, _ := bankSlot(s)
			for i, ev := range stream {
				if miss := p.PredictUpdate(ev.pc, ev.taken) != ev.taken; miss != want[i] {
					t.Fatalf("%s: PredictUpdate: event %d miss=%v, reference %v", name, i, miss, want[i])
				}
				miss := separate.Predict(ev.pc) != ev.taken
				separate.Update(ev.pc, ev.taken)
				if miss != want[i] {
					t.Fatalf("%s: Predict+Update: event %d miss=%v, reference %v", name, i, miss, want[i])
				}
			}
			for _, l := range lengths {
				kernel, _ := bankSlot(s)
				checkKernel(t, fmt.Sprintf("%s/chunk %d", name, l), kernel, chunks[l], want)
			}
		}
	}
}

// checkKernel sweeps chunks through a fresh kernel p into prefilled
// bitmaps and compares every bit with the reference misses.
func checkKernel(t *testing.T, name string, p ChunkSweeper, chunks []oracleChunk, want []bool) {
	t.Helper()
	base := 0
	for _, c := range chunks {
		wrong := make([]uint64, len(c.dirs))
		for w := range wrong {
			wrong[w] = chunkPrefill
		}
		p.SweepChunk(c.pcs, c.dirs, c.n, wrong)
		for i := 0; i < len(wrong)*64; i++ {
			bit := uint64(1) << (uint(i) & 63)
			w := chunkPrefill&bit != 0
			if i < c.n {
				w = w || want[base+i]
			}
			if got := wrong[i>>6]&bit != 0; got != w {
				t.Fatalf("%s: bit %d of the chunk at event %d: %v, want %v", name, i, base, got, w)
			}
		}
		base += c.n
	}
}

// bernoulliMiss is a 2-bit counter's miss rate on i.i.d. outcomes taken
// with probability p: the stationary distribution is π_i ∝ r^i with
// r = p/(1−p), states 0 and 1 miss taken outcomes, 2 and 3 the others.
func bernoulliMiss(p float64) float64 {
	r := p / (1 - p)
	return (p*(1+r) + (1-p)*(r*r+r*r*r)) / (1 + r + r*r + r*r*r)
}

// markovMissK0 is a lone counter's miss rate on a two-state Markov stream
// that repeats its last outcome with probability s. The counter alone is
// not a Markov chain there; the pair (counter, last outcome) is, and its
// stationary distribution is found by power iteration.
func markovMissK0(s float64) float64 {
	var pi [8]float64 // state c<<1 | last
	for i := range pi {
		pi[i] = 1.0 / 8
	}
	miss := 0.0
	for iter := 0; iter < 100000; iter++ {
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
				nc := c
				if x == 1 && c < 3 {
					nc++
				} else if x == 0 && c > 0 {
					nc--
				}
				next[nc<<1|x] += w * q
			}
		}
		pi = next
	}
	return miss
}

func TestClosedFormRates(t *testing.T) {
	cases := []struct {
		got, want float64
	}{
		{bernoulliMiss(0.9), 0.1098},
		{bernoulliMiss(0.7), 0.3621},
		{bernoulliMiss(0.8), 0.2353},
		{bernoulliMiss(0.95), 0.0525},
		{markovMissK0(0.8), 2.0 / 7},
		{markovMissK0(0.95), 1.0 / 11},
	}
	for i, c := range cases {
		if math.Abs(c.got-c.want) > 5e-5 {
			t.Errorf("case %d: %.5f, want %.5f", i, c.got, c.want)
		}
	}
}

// TestBankMatchesClosedForm feeds one PC 2^21 seeded outcomes and checks
// every slot with k ≤ 8, through SweepChunk and through Predict+Update,
// against the analytic miss rate. On a Markov stream every k ≥ 1 counter
// follows one last outcome, so it sees Bernoulli(s) outcomes up to the
// counter's taken/not-taken symmetry; k = 0 needs the (counter, last
// outcome) chain. Larger k are still warming 2^k counters at this length.
func TestBankMatchesClosedForm(t *testing.T) {
	const events = 1 << 21
	const pc = 0x400000
	const maxK = 8
	type source struct {
		name string
		seed uint64
		// repeat reports whether an outcome repeats the last one (Markov)
		// rather than is taken (Bernoulli), with probability prob.
		repeat bool
		prob   float64
		want   func(k int) float64
	}
	bern := func(p float64) func(int) float64 { return func(int) float64 { return bernoulliMiss(p) } }
	markov := func(s float64) func(int) float64 {
		return func(k int) float64 {
			if k == 0 {
				return markovMissK0(s)
			}
			return bernoulliMiss(s)
		}
	}
	sources := []source{
		{"bernoulli(0.9)", 1, false, 0.9, bern(0.9)},
		{"bernoulli(0.7)", 2, false, 0.7, bern(0.7)},
		{"markov(0.8)", 3, true, 0.8, markov(0.8)},
		{"markov(0.95)", 4, true, 0.95, markov(0.95)},
	}
	pcs := make([]uint64, trace.DefaultChunkEvents)
	for i := range pcs {
		pcs[i] = pc
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			t.Parallel()
			r := newTestRand(src.seed)
			dirs := make([]uint64, events/64)
			last := uint64(0)
			for i := 0; i < events; i++ {
				x := uint64(0)
				if float64(r.next()>>11)/(1<<53) < src.prob {
					x = 1
				}
				if src.repeat {
					x ^= 1 ^ last
				}
				dirs[i>>6] |= x << (uint(i) & 63)
				last = x
			}
			wrong := make([]uint64, len(pcs)/64)
			for s := 0; s < bankSlots; s++ {
				k := s % (MaxHistory + 1)
				if k > maxK {
					continue
				}
				sweep, _ := bankSlot(s)
				misses := 0
				for base := 0; base < events; base += len(pcs) {
					clear(wrong)
					sweep.SweepChunk(pcs, dirs[base>>6:], len(pcs), wrong)
					for _, w := range wrong {
						misses += bits.OnesCount64(w)
					}
				}
				step, _ := bankSlot(s)
				stepMisses := 0
				for i := 0; i < events; i++ {
					taken := dirs[i>>6]>>(uint(i)&63)&1 == 1
					if step.Predict(pc) != taken {
						stepMisses++
					}
					step.Update(pc, taken)
				}
				want := src.want(k)
				for path, m := range map[string]int{"SweepChunk": misses, "Predict+Update": stepMisses} {
					if got := float64(m) / events; math.Abs(got-want) > 0.003 {
						t.Errorf("%s via %s: miss rate %.4f, analytic %.4f", sweep.Name(), path, got, want)
					}
				}
			}
		})
	}
}
