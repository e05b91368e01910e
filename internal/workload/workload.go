// Package workload provides the instrumented programs that stand in for
// the paper's SPECint95 benchmarks (§3, Table 1).
//
// SPEC95 binaries and an Alpha/SimpleScalar toolchain are not available,
// so each benchmark is replaced by a deterministic Go mini-program that is
// an algorithmic analogue of the original (an LZW compressor for compress,
// an expression compiler for gcc, a game-tree searcher for go, ...). Each
// program is instrumented at every interesting conditional with a Tracer
// call, so running a workload *is* running the traced program — the branch
// stream is emergent program behaviour, not synthesised noise. Workloads
// replay bit-identically, which lets the analysis pipeline profile on one
// pass and simulate predictors on a second without storing traces.
//
// Input sets mirror Table 1: the same benchmark/input rows, with dynamic
// branch counts scaled down (the paper's 66 billion total would be
// pointless for rate metrics that converge by millions) but preserving the
// paper's relative input sizes.
package workload

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"btr/internal/rng"
	"btr/internal/trace"
)

// T is the tracer handed to every workload. Workloads call B at each
// conditional branch site; the idiomatic use is
//
//	if t.B(siteID, x < y) { ... }
//
// Site IDs are small integers unique within one workload run; T maps them
// into a per-benchmark PC range so that different benchmarks never share
// addresses.
type T struct {
	sink trace.Sink
	base uint64
	n    int64
}

// B records one dynamic execution of the conditional branch at site and
// returns the outcome unchanged so it can wrap a condition in place.
func (t *T) B(site uint32, taken bool) bool {
	t.sink.Branch(t.base+uint64(site)<<2, taken)
	t.n++
	return taken
}

// N returns the number of dynamic branches emitted so far. Workloads use
// it to size their outer loops against the spec's target.
func (t *T) N() int64 { return t.n }

// Spec describes one benchmark/input row of Table 1.
type Spec struct {
	// Bench is the benchmark name, e.g. "gcc".
	Bench string
	// Input is the input-set name, e.g. "amptjp.i".
	Input string
	// Target is the dynamic conditional branch count to aim for at scale
	// 1.0. Runs stop at the first outer-iteration boundary at or past the
	// target, so realised counts slightly exceed it.
	Target int64
	// Seed fixes the workload's private random stream.
	Seed uint64

	run func(t *T, r *rng.Rand, target int64)
}

// Name returns "bench/input".
func (s Spec) Name() string { return s.Bench + "/" + s.Input }

// PCBase returns the base address for the spec's branch sites. Bases are
// derived from the benchmark name so every benchmark occupies a disjoint
// 2^22-byte region.
func (s Spec) PCBase() uint64 {
	var h uint64 = 1469598103934665603 // FNV-64 offset basis
	for i := 0; i < len(s.Bench); i++ {
		h ^= uint64(s.Bench[i])
		h *= 1099511628211
	}
	return 0x400000 + (h%256)<<22
}

// Fingerprint hashes the spec parameters that select its event stream —
// bench, input, target and seed — so recordings of two different specs
// that happen to share a name never alias in a trace cache. The run
// function itself is deliberately not hashed (its code address would
// vary across rebuilds and PIE loads, breaking cross-process spill
// reuse), so specs with identical parameters but different generator
// code still collide — in memory as well as on disk. Callers defining
// several custom generators must give them distinct bench/input/seed
// parameters (see also the spill-dir caveat on trace.NewCache).
func (s Spec) Fingerprint() uint64 {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	mix := func(b byte) { h ^= uint64(b); h *= 1099511628211 }
	for i := 0; i < len(s.Bench); i++ {
		mix(s.Bench[i])
	}
	mix(0)
	for i := 0; i < len(s.Input); i++ {
		mix(s.Input[i])
	}
	mix(0)
	for i := 0; i < 8; i++ {
		mix(byte(uint64(s.Target) >> (8 * i)))
	}
	for i := 0; i < 8; i++ {
		mix(byte(s.Seed >> (8 * i)))
	}
	return h
}

// RegistryFingerprint hashes the entire workload registry — every
// suite spec's identifying parameters (bench, input, target, seed, via
// Spec.Fingerprint) — into one value naming this build's workload
// generation. Trace caches embed it in spill filenames so a -cachedir
// written by a build with different workloads self-invalidates (see
// trace.NewCache).
func RegistryFingerprint() uint64 {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for _, s := range Suite() {
		fp := s.Fingerprint()
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(fp >> (8 * i)))
			h *= 1099511628211
		}
	}
	return h
}

// Run executes the workload at the given scale, emitting branch events to
// sink. Scale multiplies the spec's target count; scale <= 0 is treated
// as 1.0, the registry's default sizing. Runs with equal (spec, scale)
// emit identical streams.
func (s Spec) Run(sink trace.Sink, scale float64) int64 {
	if scale <= 0 {
		scale = 1
	}
	target := int64(float64(s.Target) * scale)
	if target < 1 {
		target = 1
	}
	t := &T{sink: sink, base: s.PCBase()}
	s.run(t, rng.New(s.Seed), target)
	return t.n
}

// NewSpec builds a custom workload spec from a user-supplied instrumented
// program. The run function must be deterministic given (r, target) and
// should emit branches via t.B until t.N() reaches target, checking at
// reasonable intervals so overshoot stays bounded. Custom specs plug into
// every analysis in this repository (profiling, sweeps, experiments that
// take explicit spec lists).
func NewSpec(bench, input string, target int64, seed uint64, run func(t *T, r *rng.Rand, target int64)) Spec {
	return Spec{Bench: bench, Input: input, Target: target, Seed: seed, run: run}
}

// registry builds the spec table once, for Suite and Find, which run
// per request. Callers must not modify the slice.
var registry = sync.OnceValues(func() ([]Spec, map[[2]string]Spec) {
	var specs []Spec
	for _, b := range [][]Spec{compressSpecs(), gccSpecs(), goSpecs(), ijpegSpecs(),
		lispSpecs(), m88kSpecs(), perlSpecs(), vortexSpecs()} {
		specs = append(specs, b...)
	}
	byName := make(map[[2]string]Spec, len(specs)) // {bench, input}
	for _, s := range specs {
		byName[[2]string{s.Bench, s.Input}] = s
	}
	return specs, byName
})

// Suite returns every benchmark/input spec, in Table 1 order (benchmarks
// alphabetical, inputs in the paper's listed order). The slice is the
// caller's own copy.
func Suite() []Spec {
	specs, _ := registry()
	return slices.Clone(specs)
}

// Benchmarks returns the distinct benchmark names in Table 1 order.
func Benchmarks() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range Suite() {
		if !seen[s.Bench] {
			seen[s.Bench] = true
			out = append(out, s.Bench)
		}
	}
	return out
}

// Find returns the spec named bench/input.
func Find(bench, input string) (Spec, error) {
	_, byName := registry()
	if s, ok := byName[[2]string{bench, input}]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("workload: no spec %s/%s", bench, input)
}

// ByBench groups the suite's specs by benchmark name.
func ByBench() map[string][]Spec {
	m := make(map[string][]Spec)
	for _, s := range Suite() {
		m[s.Bench] = append(m[s.Bench], s)
	}
	for _, specs := range m {
		sort.SliceStable(specs, func(i, j int) bool { return specs[i].Input < specs[j].Input })
	}
	return m
}
