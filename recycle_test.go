package btr

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"btr/internal/bpred"
	"btr/internal/conf"
	"btr/internal/trace"
)

// recycleRow is one kernel the sweeps build per input: a bank slot, an
// A1/A5 row, A2's PAs pass with its estimators, or an A4 row. build
// returns the kernel's chunk step, which appends what the kernel
// reports for the chunk to out, and its Release.
type recycleRow struct {
	name  string
	build func(in *InputResult) (step func(c trace.DecodedChunk, out []uint64) []uint64, release func())
}

// sweepStep is the step of a predictor row: the chunk's miss bitmap.
func sweepStep(p bpred.ChunkSweeper) func(trace.DecodedChunk, []uint64) []uint64 {
	return func(c trace.DecodedChunk, out []uint64) []uint64 {
		wrong := make([]uint64, (c.N+63)/64)
		p.SweepChunk(c.PCs, c.Dirs, c.N, wrong)
		return append(out, wrong...)
	}
}

func recycleRows() []recycleRow {
	var rows []recycleRow
	for kind, name := range []string{"PAs", "GAs"} {
		for k := 0; k <= bpred.MaxHistory; k++ {
			rows = append(rows, recycleRow{fmt.Sprintf("bank/%s(k=%d)", name, k), func(*InputResult) (func(trace.DecodedChunk, []uint64) []uint64, func()) {
				if kind == 0 {
					p := bpred.NewPAs(k)
					return sweepStep(p), p.Release
				}
				p := bpred.NewGAs(k)
				return sweepStep(p), p.Release
			}})
		}
	}
	for _, r := range ablationRows {
		rows = append(rows, recycleRow{"A1A5/" + r.name, func(in *InputResult) (func(trace.DecodedChunk, []uint64) []uint64, func()) {
			p := r.build(in)
			return sweepStep(p), p.Release
		}})
	}
	rows = append(rows, recycleRow{"A2", func(in *InputResult) (func(trace.DecodedChunk, []uint64) []uint64, func()) {
		var rates [NumClasses][NumClasses]float64
		rates[0][0] = 0.01
		pas := bpred.NewPAs(8)
		ests := []conf.ChunkObserver{
			conf.NewClassStaticTable(in.Table, rates, 0.08),
			conf.NewOneLevel(12, 15, 8),
			conf.NewTwoLevel(12, 10, 15, 8),
		}
		step := func(c trace.DecodedChunk, out []uint64) []uint64 {
			wrong := make([]uint64, (c.N+63)/64)
			pas.SweepChunk(c.PCs, c.Dirs, c.N, wrong)
			out = append(out, wrong...)
			for _, e := range ests {
				var q conf.Quadrants
				e.ObserveChunk(c.PCs, wrong, c.N, &q)
				out = append(out, uint64(q.HighCorrect), uint64(q.HighWrong), uint64(q.LowCorrect), uint64(q.LowWrong))
			}
			return out
		}
		return step, func() {
			pas.Release()
			for _, e := range ests {
				e.Release()
			}
		}
	}})
	rows = append(rows, recycleRow{"A4", func(*InputResult) (func(trace.DecodedChunk, []uint64) []uint64, func()) {
		g, tr := bpred.NewGShare(bpred.GAsPHTBits, 12), bpred.NewAliasTracker(bpred.GAsPHTBits)
		step := func(c trace.DecodedChunk, out []uint64) []uint64 {
			wrong := make([]uint64, (c.N+63)/64)
			g.SweepChunkTracked(c.PCs, c.Dirs, c.N, wrong, tr)
			s := tr.Stats()
			return append(append(out, wrong...), uint64(s.Aliased), uint64(s.Destructive))
		}
		return step, func() { g.Release(); tr.Release() }
	}})
	return rows
}

// recycleInputs records two different suite inputs and decodes their
// chunks.
func recycleInputs(t *testing.T) (a, b ablationRowInput) {
	t.Helper()
	var specs []WorkloadSpec
	for _, w := range [][2]string{{"gcc", "genoutput.i"}, {"compress", "bigtest.in"}} {
		spec, err := FindWorkload(w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	suite := RunSuite(specs, SimConfig{Scale: 0.02})
	if len(suite.Inputs) != 2 {
		t.Fatalf("recorded %d inputs, want 2", len(suite.Inputs))
	}
	var ins [2]ablationRowInput
	for i, in := range suite.Inputs {
		ins[i].in = in
		for k := range in.Recorded.Chunks() {
			d, err := in.Recorded.DecodeChunk(k)
			if err != nil {
				t.Fatal(err)
			}
			ins[i].chunks = append(ins[i].chunks, d)
		}
	}
	return ins[0], ins[1]
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRecycledTablesMatchFresh sweeps input A through every kernel the
// sweeps build per input, releases it, rebuilds the kernel from the
// pools and sweeps input B: the output must equal a kernel built with
// the pools empty, swept over B alone. The rebuild must reuse tables —
// it allocates less than the fresh build — for at least half the rows
// (the race detector's pools drop a quarter of what they are given, so
// not every row can be required to). After Release, stepping the
// released kernel must panic.
func TestRecycledTablesMatchFresh(t *testing.T) {
	a, b := recycleInputs(t)
	run := func(step func(trace.DecodedChunk, []uint64) []uint64, in ablationRowInput) []uint64 {
		var out []uint64
		for _, c := range in.chunks {
			out = step(c, out)
		}
		return out
	}
	rows := recycleRows()
	reused := 0
	for _, row := range rows {
		// Two collections empty the pools: the fresh kernel allocates.
		runtime.GC()
		runtime.GC()
		var fresh func(trace.DecodedChunk, []uint64) []uint64
		freshBytes := allocated(func() { fresh, _ = row.build(b.in) })
		want := run(fresh, b)

		step, release := row.build(a.in)
		run(step, a)
		release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: stepping a released kernel did not panic", row.name)
				}
			}()
			step(a.chunks[0], nil)
		}()

		var again func(trace.DecodedChunk, []uint64) []uint64
		var releaseAgain func()
		againBytes := allocated(func() { again, releaseAgain = row.build(b.in) })
		if got := run(again, b); !slices.Equal(got, want) {
			t.Errorf("%s: recycled kernel's output over B differs from a fresh kernel's", row.name)
		}
		releaseAgain()
		if againBytes < freshBytes {
			reused++
		}
		t.Logf("%s: fresh build %d bytes, recycled build %d bytes", row.name, freshBytes, againBytes)
	}
	if reused*2 < len(rows) {
		t.Errorf("%d of %d rows reused their tables, want at least half", reused, len(rows))
	}
}
