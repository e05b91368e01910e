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

// pagedContext is a context over countingSpecs whose recordings page:
// under a 1-byte MemBudget every input keeps only its first 64-event
// chunk resident, so a whole read of an input's recording pages in its
// other chunks, and reads counts those reads off the handles.
func pagedContext() *Context {
	var runs atomic.Int64
	return &Context{Cfg: sim.Config{Scale: 1, MemBudget: 1, ChunkEvents: 64}, Specs: countingSpecs(&runs)}
}

// reads returns how many whole reads of each input's recording have
// paged in so far, summed over the suite's inputs.
func reads(t *testing.T, ctx *Context) int64 {
	t.Helper()
	var n int64
	for _, in := range ctx.Suite().Inputs {
		h := in.Recorded
		per := int64(h.Chunks() - 1)
		if !h.Spilled() || per < 1 || h.PageIns()%per != 0 {
			t.Fatalf("%s: %d page-ins over %d chunks: not a whole number of paged reads",
				in.Spec.Name(), h.PageIns(), h.Chunks())
		}
		n += h.PageIns() / per
	}
	return n
}

// TestAblationCanceledSkipsReplays: once the group handed to SuiteGroup
// is canceled, an ablation returns sim.ErrCanceled without reading a
// single input's recording.
func TestAblationCanceledSkipsReplays(t *testing.T) {
	ctx := pagedContext()
	s := sched.New(2)
	defer s.Close()
	g := s.NewGroup()
	ctx.SuiteGroup(g)
	before := reads(t, ctx)

	g.Cancel()
	e, err := Find("A1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(ctx, &buf); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("A1 on a canceled context returned %v, want sim.ErrCanceled", err)
	}
	if got := reads(t, ctx) - before; got != 0 {
		t.Fatalf("canceled A1 read %d recordings, want 0", got)
	}
	if buf.Len() != 0 {
		t.Fatalf("canceled A1 wrote output:\n%s", buf.String())
	}
}

// TestSharedPredictorRowsReplayOnce: A1 replays nine of its eleven
// rows, since PAs(k=8) and GAs(k=10) read the suite sweep's own bank
// slots; A5 after A1 replays only the four constructors A1 did not
// run, and TransitionHybrid and gshare(17,k=12) come from the
// context's memo. A run with rows to replay reads every input's
// recording once for all of them; a run with none reads nothing.
func TestSharedPredictorRowsReplayOnce(t *testing.T) {
	ctx := pagedContext()
	inputs := int64(len(ctx.Specs))
	ctx.Suite()
	memo := 0
	for _, tc := range []struct {
		id   string
		rows int
	}{{"A1", 9}, {"A5", 4}, {"A1", 0}} {
		e, err := Find(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		before := reads(t, ctx)
		if err := e.Run(ctx, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		if got := len(ctx.predMemo) - memo; got != tc.rows {
			t.Fatalf("%s replayed %d rows, want %d", tc.id, got, tc.rows)
		}
		memo = len(ctx.predMemo)
		want := inputs
		if tc.rows == 0 {
			want = 0
		}
		if got := reads(t, ctx) - before; got != want {
			t.Fatalf("%s read %d recordings, want %d", tc.id, got, want)
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
