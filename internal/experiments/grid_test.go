package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"btr/internal/bpred"
	"btr/internal/sched"
	"btr/internal/sim"
	"btr/internal/trace"
)

// gridIDs are the ablations that run as (row × input) task grids.
var gridIDs = []string{"A1", "A2", "A4", "A5"}

// renderGridAblations renders every grid ablation on ctx, in order.
func renderGridAblations(t *testing.T, ctx *Context) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, id := range gridIDs {
		e, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(ctx, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out[id] = buf.String()
	}
	return out
}

// TestAblationGridDeterministic: the grid ablations render byte-identical
// artifacts whatever scheduler runs the grid (a private one when the
// config brings none, or 1, 2 and 8 workers), and whether the replays
// read retained recordings or page concurrently through spilled ones.
// Under -race the streamed case is also the workout for concurrent
// Replay over one spilled Handle.
func TestAblationGridDeterministic(t *testing.T) {
	specs := smallContext().Specs
	const scale = 0.004
	private := func() sim.Config {
		return sim.Config{Scale: scale, Cache: trace.NewCache(0, "", 0), Profiles: sim.NewProfileCache()}
	}
	want := renderGridAblations(t, &Context{Cfg: private(), Specs: specs})

	check := func(name string, ctx *Context) {
		t.Helper()
		got := renderGridAblations(t, ctx)
		for _, id := range gridIDs {
			if got[id] != want[id] {
				t.Errorf("%s: %s differs from the private-scheduler render:\n%s\nwant:\n%s", name, id, got[id], want[id])
			}
		}
	}
	for _, workers := range []int{1, 2, 8} {
		s := sched.New(workers)
		cfg := private()
		cfg.Sched = s
		check(fmt.Sprintf("sched.New(%d)", workers), &Context{Cfg: cfg, Specs: specs})
		s.Close()
	}

	streamed := NewContextShared(sim.Config{Scale: scale, MemBudget: 64 << 10, DecodedBudget: 128 << 10}, nil)
	streamed.Specs = specs
	if suite := streamed.Suite(); suite.Mem.PageIns == 0 {
		t.Fatalf("streamed config never paged (recorded %d bytes): the spill path is not exercised",
			suite.Mem.RecordedBytes)
	}
	check("streamed", streamed)
}

// TestAblationCanceledSkipsReplays: once the group handed to SuiteGroup
// is canceled, an ablation returns sim.ErrCanceled without replaying a
// single input. NoRecord makes every replay a generator run, so the
// generator counter counts replays.
func TestAblationCanceledSkipsReplays(t *testing.T) {
	var runs atomic.Int64
	ctx := &Context{Cfg: sim.Config{Scale: 1, NoRecord: true}, Specs: countingSpecs(&runs)}
	s := sched.New(2)
	defer s.Close()
	g := s.NewGroup()
	ctx.SuiteGroup(g)
	before := runs.Load()

	g.Cancel()
	e, err := Find("A1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(ctx, &buf); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("A1 on a canceled context returned %v, want sim.ErrCanceled", err)
	}
	if got := runs.Load() - before; got != 0 {
		t.Fatalf("canceled A1 replayed %d inputs, want 0", got)
	}
	if buf.Len() != 0 {
		t.Fatalf("canceled A1 wrote output:\n%s", buf.String())
	}
}

// TestSharedPredictorRowsReplayOnce: A1 replays nine of its eleven
// rows, since PAs(k=8) and GAs(k=10) read the suite sweep's own bank
// slots; A5 after A1 replays only the four constructors A1 did not
// run, and TransitionHybrid and gshare(17,k=12) come from the
// context's memo.
func TestSharedPredictorRowsReplayOnce(t *testing.T) {
	var runs atomic.Int64
	ctx := &Context{Cfg: sim.Config{Scale: 1, NoRecord: true}, Specs: countingSpecs(&runs)}
	inputs := int64(len(ctx.Specs))
	ctx.Suite()
	for _, tc := range []struct {
		id   string
		rows int64
	}{{"A1", 9}, {"A5", 4}, {"A1", 0}} {
		e, err := Find(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		before := runs.Load()
		if err := e.Run(ctx, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		if got := runs.Load() - before; got != tc.rows*inputs {
			t.Fatalf("%s replayed %d inputs, want %d (%d rows × %d inputs)", tc.id, got, tc.rows*inputs, tc.rows, inputs)
		}
	}
}

// TestBankRowsMatchReplay: A1's PAs(k=8) and GAs(k=10) rows read the
// suite sweep's own slots; the tally must equal replaying every input
// through a fresh predictor's chunk kernel, as the rows did before.
func TestBankRowsMatchReplay(t *testing.T) {
	ctx := smallContext()
	for _, spec := range []predictorSpec{bankSpec(sim.KindPAs, 8), bankSpec(sim.KindGAs, 10)} {
		got := spec.bank.tally(ctx.Suite())
		parts, err := runGrid(ctx, 1, func(_ int, in *sim.InputResult) gridRow[predictorTally] {
			var p ablationPredictor = bpred.NewGAs(spec.bank.k)
			if spec.bank.kind == sim.KindPAs {
				p = bpred.NewPAs(spec.bank.k)
			}
			return &predictorRun{p: p, tally: predictorTally{sizeBits: p.SizeBits()}}
		})
		if err != nil {
			t.Fatal(err)
		}
		var want predictorTally
		for _, p := range parts[0] {
			want.misses += p.misses
			want.events += p.events
			want.sizeBits = p.sizeBits
		}
		if got != want || got.misses == 0 {
			t.Errorf("%s: bank tally %+v, replay %+v", spec.key, got, want)
		}
	}
}
