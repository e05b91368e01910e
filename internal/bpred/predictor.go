package bpred

import "btr/internal/trace"

// Predictor is a dynamic conditional branch predictor. The simulation
// protocol is predict-then-update for every dynamic branch, in program
// order, exactly as sim-bpred does:
//
//	predicted := p.Predict(pc)
//	p.Update(pc, actual)
//
// Implementations are not safe for concurrent use; the sweep harness runs
// one predictor per goroutine.
type Predictor interface {
	// Name identifies the configuration, e.g. "PAs(k=8)".
	Name() string
	// Predict returns the predicted direction for the branch at pc,
	// without modifying any state.
	Predict(pc uint64) bool
	// Update trains the predictor with the branch's actual outcome.
	Update(pc uint64, taken bool)
	// SizeBits returns the hardware budget the configuration consumes,
	// in bits of predictor state (tables and history registers).
	SizeBits() int64
}

// Step performs one predict-then-update step and returns the
// prediction: the definition every chunk kernel is tested against.
func Step(p Predictor, pc uint64, taken bool) bool {
	predicted := p.Predict(pc)
	p.Update(pc, taken)
	return predicted
}

// Result summarises a predictor's accuracy over a stream.
type Result struct {
	Name   string
	Events int64
	Misses int64
}

// MissRate returns Misses/Events, or 0 for an empty run.
func (r Result) MissRate() float64 {
	if r.Events == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Events)
}

// Run drives a predictor over a trace source and returns its Result.
func Run(p Predictor, src trace.Source) (Result, error) {
	res := Result{Name: p.Name()}
	for {
		ev, ok, err := src.Next()
		if err != nil {
			return res, err
		}
		if !ok {
			return res, nil
		}
		if Step(p, ev.PC, ev.Taken) != ev.Taken {
			res.Misses++
		}
		res.Events++
	}
}

// Sink adapts a Predictor to trace.Sink, accumulating a Result: the
// event-at-a-time way to drive a predictor from a workload generator.
type Sink struct {
	P   Predictor
	Res Result
}

// NewSink wraps p.
func NewSink(p Predictor) *Sink {
	return &Sink{P: p, Res: Result{Name: p.Name()}}
}

var _ trace.Sink = (*Sink)(nil)

// Branch performs one predict-update step.
func (s *Sink) Branch(pc uint64, taken bool) {
	if Step(s.P, pc, taken) != taken {
		s.Res.Misses++
	}
	s.Res.Events++
}

// ChunkSweeper is the batch form of Step, the column kernel the
// simulator's sweeps and the ablation grids drive; every predictor the
// §5 ablations build has one. SweepChunk runs the predict-then-update
// protocol over one decoded chunk — pcs and the direction bitmap dirs
// (event i's outcome is bit i&63 of word i>>6) hold n events — and sets
// bit i of wrong for every misprediction, leaving the other bits alone:
// callers clear wrong between chunks and count misses by popcount.
// Sweeping a stream's chunks in order is identical to calling Step on
// each event. The kernels do not call it: each reads a dirs word once,
// takes the outcomes as integer bits, trains its raw tables and ORs a
// register of miss bits into wrong once per 64 events (see
// GAs.SweepChunk). Only composites over custom components step their
// parts per event, through sweepSteps.
type ChunkSweeper interface {
	SweepChunk(pcs, dirs []uint64, n int, wrong []uint64)
}

// sweepSteps is the chunk kernel of a composite over components it
// cannot reach into: the shape of GAs.SweepChunk around one Step per
// event. Composites over their default components have their own
// inlined loops.
func sweepSteps(p Predictor, pcs, dirs []uint64, n int, wrong []uint64) {
	for base := 0; base < n; base += 64 {
		d := dirs[base>>6]
		var miss uint64
		for j, pc := range pcs[base:min(base+64, n)] {
			t := d >> (uint(j) & 63) & 1
			miss |= (bit(Step(p, pc, t == 1)) ^ t) << (uint(j) & 63)
		}
		wrong[base>>6] |= miss
	}
}

// part is one component of a composite predictor. The component types
// the defaults use are resolved to concrete pointers once, at
// construction, so a composite's chunk kernel can step their tables
// inline; every other use goes through p.
type part struct {
	p       Predictor
	bimodal *Bimodal
	pas     *PAs
	gshare  *GShare
}

func newPart(p Predictor) part {
	c := part{p: p}
	switch q := p.(type) {
	case *Bimodal:
		c.bimodal = q
	case *PAs:
		c.pas = q
	case *GShare:
		c.gshare = q
	}
	return c
}
