package sim_test

import (
	"io"
	"maps"
	"runtime"
	"slices"
	"testing"

	"btr/internal/core"
	"btr/internal/experiments"
	"btr/internal/sched"
	"btr/internal/sim"
	"btr/internal/trace"
	"btr/internal/workload"
)

// missMatrixBytes is the size of one input's Miss matrix, what a
// profile-cache hit copied before it shared the entry's.
const missMatrixBytes = 32912

// TestWarmHitSharesResult pins what a profile-cache hit costs and what
// it may touch. Every warm input's Miss is the cache entry's own matrix,
// not a copy; the A1 and A5 ablations, which read the served results
// (bank-slot rows sum Miss; the hybrids read Table and Profiles), leave
// the entry as it was; and a warm RunSuite allocates less than one
// matrix per input.
func TestWarmHitSharesResult(t *testing.T) {
	var specs []workload.Spec
	for _, n := range [][2]string{{"compress", "bigtest.in"}, {"gcc", "genoutput.i"}, {"li", "ref.lsp"}} {
		s, err := workload.Find(n[0], n[1])
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	s := sched.New(2)
	defer s.Close()
	cfg := sim.Config{
		Scale:    0.002,
		Sched:    s,
		Cache:    trace.NewCache(0, "", workload.RegistryFingerprint()),
		Profiles: sim.NewProfileCache(),
	}
	cold := sim.RunSuite(specs, cfg)

	type snapshot struct {
		miss     [sim.NumKinds][sim.NumHistories]sim.JointCounts
		exec     sim.JointCounts
		dist     core.Distribution
		hard     []int64
		profiles map[uint64]core.Profile
	}
	snap := func(r *sim.InputResult) snapshot {
		ps := make(map[uint64]core.Profile, len(r.Profiles))
		for pc, p := range r.Profiles {
			ps[pc] = *p
		}
		return snapshot{*r.Miss, r.Exec, *r.Distribution, slices.Clone(r.HardDistances.Bins), ps}
	}
	entries := make([]*sim.InputResult, len(specs))
	before := make([]snapshot, len(specs))
	for i, spec := range specs {
		if entries[i] = sim.CachedResult(cfg, spec); entries[i] == nil {
			t.Fatalf("%s: no profile-cache entry after the cold run", spec.Name())
		}
		before[i] = snap(entries[i])
		if *cold.Inputs[i].Miss != before[i].miss {
			t.Fatalf("%s: entry's Miss differs from the cold result's", spec.Name())
		}
	}

	for run := 0; run < 2; run++ {
		warm := sim.RunSuite(specs, cfg)
		for i, r := range warm.Inputs {
			if r.Miss != entries[i].Miss || r.Distribution != entries[i].Distribution {
				t.Fatalf("warm run %d, %s: Miss or Distribution is a copy, not the cache entry's", run, r.Spec.Name())
			}
		}
	}

	ctx := &experiments.Context{Cfg: cfg, Specs: specs}
	for _, id := range []string{"A1", "A5"} {
		e, err := experiments.Find(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(ctx, io.Discard); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	for i, e := range entries {
		after := snap(e)
		if after.miss != before[i].miss || after.exec != before[i].exec || after.dist != before[i].dist ||
			!slices.Equal(after.hard, before[i].hard) || !maps.Equal(after.profiles, before[i].profiles) {
			t.Fatalf("%s: cache entry changed after A1/A5 read it", specs[i].Name())
		}
	}
	if ctx.Suite().Distribution != cold.Distribution {
		t.Fatal("warm suite distribution diverged from the cold run's")
	}

	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		sim.RunSuite(specs, cfg)
	}
	runtime.ReadMemStats(&m1)
	if perInput := (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs*len(specs)); perInput >= missMatrixBytes {
		t.Fatalf("a warm RunSuite allocates %d bytes per input, want < %d (one Miss matrix)", perInput, missMatrixBytes)
	} else {
		t.Logf("a warm RunSuite allocates %d bytes per input", perInput)
	}
}
