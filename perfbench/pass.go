package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"btr/internal/experiments"
	"btr/internal/sched"
	"btr/internal/sim"
	"btr/internal/workload"
)

// passReport is what one pass process prints: the suite's event
// count, the digest of every rendered artifact, and any input the
// suite dropped.
type passReport struct {
	Events  int64             `json:"events"`
	Dropped []string          `json:"dropped"`
	Digests map[string]string `json:"digests"`
}

// renderPass runs one pass the way brexp does: an explicit scheduler,
// a fresh experiment context (so fresh trace and profile caches), the
// shared suite sweep, then every artifact in ids rendered in order.
// rec, when non-nil, gets a span around each call into sim and
// experiments under parent.
func renderPass(def workloadDef, specs []workload.Spec, ids []string, rec *recorder, parent int) (passReport, error) {
	pool := sched.New(0)
	defer pool.Close()
	ctx := experiments.NewContext(sim.Config{
		Scale:         def.scale,
		MemBudget:     def.memBudget,
		DecodedBudget: def.decodedBudget,
		Sched:         pool,
	})
	ctx.Specs = specs
	var suite *sim.SuiteResult
	rec.time("sim.suite", "pass", parent, func() { suite = ctx.SuiteGroup(pool.NewGroup()) })
	rep := passReport{Events: suite.TotalEvents(), Digests: make(map[string]string, len(ids))}
	for _, d := range suite.Dropped {
		rep.Dropped = append(rep.Dropped, d.Error())
	}
	for _, id := range ids {
		e, err := experiments.Find(id)
		if err != nil {
			return rep, err
		}
		var buf bytes.Buffer
		rec.time("experiments."+id, "pass", parent, func() { err = e.Run(ctx, &buf) })
		if err != nil {
			return rep, fmt.Errorf("experiment %s: %w", id, err)
		}
		rep.Digests[id] = digest(buf.Bytes())
	}
	return rep, nil
}

// passChild is the body of a pass process. With spanPath set it
// records spans and writes them there.
func passChild(def workloadDef, specs []workload.Spec, spanPath string) error {
	var rec *recorder
	if spanPath != "" {
		rec = newRecorder()
	}
	root := rec.begin("bench.pass", "pass", -1)
	rep, err := renderPass(def, specs, def.ids, rec, root)
	rec.end(root)
	if err != nil {
		return err
	}
	if rec != nil {
		if err := rec.writeFile(spanPath); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// genDigests renders, with the registry's specs on the retained path,
// every artifact over the full suite and T2+F13 over each benchmark's
// inputs (what one serve-mixed request returns), at every workload's
// scale, and prints the digest set.
func genDigests() error {
	set := digestSet{}
	benches, names := benchSpecNames()
	for _, name := range []string{"paper-all", "suite-streamed", "serve-mixed"} {
		def, _ := workloadByName(name)
		def.memBudget, def.decodedBudget = 0, 0
		k := scaleKey(def.scale)
		if set[k] != nil {
			continue
		}
		set[k] = map[string]map[string]string{}
		rep, err := renderPass(def, workload.Suite(), allIDs(func(string) bool { return true }), nil, -1)
		if err != nil {
			return err
		}
		if len(rep.Dropped) > 0 {
			return fmt.Errorf("scale %g: dropped inputs %v", def.scale, rep.Dropped)
		}
		set[k]["suite"] = rep.Digests
		for _, b := range benches {
			var specs []workload.Spec
			for _, n := range names[b] {
				bench, input, _ := strings.Cut(n, "/")
				s, err := workload.Find(bench, input)
				if err != nil {
					return err
				}
				specs = append(specs, s)
			}
			rep, err := renderPass(def, specs, serveIDs, nil, -1)
			if err != nil {
				return err
			}
			set[k][b] = rep.Digests
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(set)
}
