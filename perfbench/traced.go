package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"btr/internal/experiments"
	"btr/internal/sched"
	"btr/internal/serve"
	"btr/internal/sim"
	"btr/internal/trace"
	"btr/internal/workload"
)

// caches returns fresh trace and profile caches sized the way
// experiments.NewContext sizes them for the workload's budgets.
func (r *run) caches() (*trace.Cache, *sim.ProfileCache) {
	if r.def.memBudget > 0 {
		return trace.NewCache(r.def.memBudget, "", workload.RegistryFingerprint()),
			sim.NewProfileCacheBytes(r.def.memBudget)
	}
	sh := experiments.NewShared(0, "")
	return sh.Traces, sh.Profiles
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return rusageCPU(&ru)
}

// probeSuite times RunSuiteOn with empty caches and again with both
// caches filled, and reports the scheduler, memory-shape and
// utilization counters of the cold call.
func (r *run) probeSuite(rec *recorder, m metricSet, specs []workload.Spec) error {
	s := sched.New(0)
	defer s.Close()
	tc, pc := r.caches()
	cfg := sim.Config{Scale: r.def.scale, MemBudget: r.def.memBudget, DecodedBudget: r.def.decodedBudget,
		Cache: tc, Profiles: pc, Sched: s}
	root := rec.begin("bench.suite", "suite", -1)
	defer rec.end(root)
	st0, cpu0 := s.Stats(), selfCPU()
	var cold, warm *sim.SuiteResult
	coldT := rec.time("sim.suite_cold", "suite", root, func() { cold = sim.RunSuiteOn(s, specs, cfg) })
	st1, cpu1 := s.Stats(), selfCPU()
	warmT := rec.time("sim.suite_warm", "suite", root, func() { warm = sim.RunSuiteOn(s, specs, cfg) })
	for _, res := range []*sim.SuiteResult{cold, warm} {
		if len(res.Dropped) > 0 {
			return fmt.Errorf("suite dropped inputs: %v", res.Dropped)
		}
	}
	m.set("sim.suite_cold_s", coldT.Seconds(), "s")
	m.set("sim.suite_warm_s", warmT.Seconds(), "s")
	m.set("sim.pass1_s", (coldT - warmT).Seconds(), "s")
	m.set("sim.utilization", (cpu1-cpu0).Seconds()/(coldT.Seconds()*float64(s.Workers())), "ratio")
	m.set("sched.executed", float64(st1.Executed-st0.Executed), "count")
	m.set("sched.steals", float64(st1.Steals-st0.Steals), "count")
	m.set("sched.parks", float64(st1.Parks-st0.Parks), "count")
	m.set("sched.injector_submits", float64(st1.InjectorSubmits-st0.InjectorSubmits), "count")

	mem := cold.Mem
	checkouts := float64(mem.DecodedHits + mem.DecodedRedecodes)
	prefetched := float64(mem.PrefetchHits + mem.PrefetchWasted)
	m.set("trace.page_ins", float64(mem.PageIns), "count")
	m.set("trace.redecodes", float64(mem.DecodedRedecodes), "count")
	m.set("trace.pool_hit_ratio", ratio(float64(mem.DecodedHits), checkouts), "ratio")
	m.set("trace.pool_checkouts", checkouts, "count")
	m.set("trace.prefetch_useful_ratio", ratio(float64(mem.PrefetchHits), prefetched), "ratio")
	m.set("trace.prefetch_outcomes", prefetched, "count")
	m.set("trace.decoded_peak_mib", float64(mem.DecodedPeak)/mib, "MiB")
	m.set("trace.resident_peak_mib", float64(mem.ResidentPeak)/mib, "MiB")
	return nil
}

// probeExperiments computes the suite once (as a pass does), then
// times each ablation and the rendering of every other artifact. With
// seed 0 the artifacts are checked against the digests.
func (r *run) probeExperiments(rec *recorder, m metricSet, specs []workload.Spec) error {
	s := sched.New(0)
	defer s.Close()
	ctx := experiments.NewContext(sim.Config{Scale: r.def.scale, MemBudget: r.def.memBudget,
		DecodedBudget: r.def.decodedBudget, Sched: s})
	ctx.Specs = specs
	root := rec.begin("bench.experiments", "experiments", -1)
	defer rec.end(root)
	rec.time("sim.suite", "experiments", root, func() { ctx.SuiteGroup(s.NewGroup()) })
	var render time.Duration
	got := make(map[string]string)
	var ids []string
	for _, e := range experiments.All() {
		var buf bytes.Buffer
		var err error
		d := rec.time("experiments."+e.ID, "experiments", root, func() { err = e.Run(ctx, &buf) })
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		if ablationIDs[e.ID] {
			m.set("experiments."+e.ID+"_s", d.Seconds(), "s")
		} else {
			render += d
		}
		got[e.ID] = digest(buf.Bytes())
		ids = append(ids, e.ID)
	}
	m.set("experiments.render_s", render.Seconds(), "s")
	if r.seed == 0 {
		r.attempt++
		if bad := checkDigests(got, r.digests.want(r.def.scale, "suite"), ids); len(bad) > 0 {
			r.fail("traced experiments: %s", joinProblems(bad))
		}
	}
	return nil
}

// probeServe mounts the serve handler in this process on a loopback
// port, warms it with one request per shape, then sends one untraced
// and one traced round of the same requests. It returns the two
// rounds' wall times.
func (r *run) probeServe(rec *recorder, m metricSet) (untraced, traced time.Duration, err error) {
	s := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	hs := &http.Server{Handler: s.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: requestTimeout}
	defer func() {
		tr.CloseIdleConnections()
		_ = hs.Shutdown(context.Background())
		<-done
		s.Close()
	}()
	base := "http://" + ln.Addr().String()
	order := requestOrder(r.seed, 0)
	round := func(rec *recorder) (time.Duration, []reqResult) {
		start := time.Now()
		var out []reqResult
		for i, b := range order {
			id := fmt.Sprintf("req-%d", i)
			sp := rec.begin("serve.request", id, -1)
			res, err := r.request(client, base, b)
			rec.end(sp)
			if r.checkRequest(b, res, err) {
				out = append(out, res)
				if rec != nil {
					// The session's own work (suite run plus render) as the
					// server timed it, placed at the end of the stream.
					end := rec.snapshot()[sp].End
					rec.add(span{Name: "session.run", ID: id, Parent: sp,
						Start: end - time.Duration(res.serverMS)*time.Millisecond, End: end})
				}
			}
		}
		return time.Since(start), out
	}
	round(nil) // warm: one request per shape
	m0, err := getMetrics(client, base)
	if err != nil {
		return 0, 0, err
	}
	tc0 := s.Shared().Traces.Stats()
	untraced, _ = round(nil)
	traced, reqs := round(rec)
	tc1 := s.Shared().Traces.Stats()
	m1, err := getMetrics(client, base)
	if err != nil {
		return 0, 0, err
	}
	if len(reqs) == 0 {
		return 0, 0, fmt.Errorf("no traced request succeeded: %s", joinProblems(r.problems))
	}
	var ttfb, overhead []float64
	for _, q := range reqs {
		ttfb = append(ttfb, q.ttfb.Seconds()*1000)
		overhead = append(overhead, q.latency.Seconds()*1000-float64(q.serverMS))
	}
	lookups := float64(tc1.Hits - tc0.Hits + tc1.Misses - tc0.Misses)
	m.set("trace.cache_hit_ratio", ratio(float64(tc1.Hits-tc0.Hits), lookups), "ratio")
	m.set("trace.cache_lookups", lookups, "count")
	m.set("serve.ttfb_ms", median(ttfb), "ms")
	m.set("serve.overhead_ms", median(overhead), "ms")
	m.set("serve.rejected", float64(m1.Requests.Rejected-m0.Requests.Rejected), "count")
	pl := float64(m1.ProfileCache.Hits - m0.ProfileCache.Hits + m1.ProfileCache.Misses - m0.ProfileCache.Misses)
	m.set("serve.profile_cache_hit_ratio", ratio(float64(m1.ProfileCache.Hits-m0.ProfileCache.Hits), pl), "ratio")
	m.set("serve.profile_cache_lookups", pl, "count")
	return untraced, traced, nil
}

func getMetrics(client *http.Client, base string) (serve.Metrics, error) {
	var mt serve.Metrics
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return mt, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return mt, err
	}
	return mt, json.Unmarshal(body, &mt)
}

// spanLayers are the span name prefixes of a traced run: the program's
// layers, plus "bench" for the benchmark's own code around them and
// "session" for a served request's work as the server timed it.
var spanLayers = []string{"bench", "workload", "trace", "core", "bpred", "sim", "experiments", "serve", "session"}

// tracedRun produces every per-layer metric. Batch workloads also run
// one untraced and one traced pass process; serve-mixed compares an
// untraced and a traced round of requests. The difference is the
// tracing overhead.
func (r *run) tracedRun(m metricSet) ([]span, error) {
	rec := newRecorder()
	specs := r.specs
	var overhead time.Duration
	if !r.def.serve {
		u, err := r.runPass("", "")
		r.checkPass("untraced pass", u, err, nil, r.def.ids)
		spans := filepath.Join(r.workDir, "pass-spans.json")
		offset := time.Since(rec.t0)
		t, err := r.runPass("", spans)
		if r.checkPass("traced pass", t, err, &u, r.def.ids) {
			var child []span
			data, err := os.ReadFile(spans)
			if err == nil {
				err = json.Unmarshal(data, &child)
			}
			if err != nil {
				return nil, fmt.Errorf("pass spans: %w", err)
			}
			rec.merge(child, -1, offset)
		}
		overhead = t.wall - u.wall
	}
	if err := r.probeInputs(rec, m, specs); err != nil {
		return nil, err
	}
	if err := r.probeSuite(rec, m, specs); err != nil {
		return nil, err
	}
	if err := r.probeExperiments(rec, m, specs); err != nil {
		return nil, err
	}
	u, t, err := r.probeServe(rec, m)
	if err != nil {
		return nil, err
	}
	if r.def.serve {
		overhead = t - u
	}
	m.set("tracing.overhead_s", overhead.Seconds(), "s")
	spans := rec.snapshot()
	self := layerSelf(spans)
	for _, l := range spanLayers {
		m.set(l+".self_s", self[l].Seconds(), "s")
	}
	return spans, nil
}
